"""Discrete-event simulation substrate.

The paper evaluates Multi-Ring Paxos on a dedicated cluster (4 x 32-core
Xeon, 10 Gbps switching, SSDs and hard disks) and on Amazon EC2 across four
regions.  Neither environment is available to this reproduction, and a pure
Python implementation could not drive a real 10 Gbps ring anyway.  Instead,
every experiment runs on this deterministic discrete-event simulator:

* :mod:`repro.sim.engine` -- the event loop and simulated clock.
* :mod:`repro.runtime.actor` -- the actor model used by every protocol role
  (proposer, acceptor, learner, replica, client, ...); backend-agnostic,
  re-exported here for convenience.
* :mod:`repro.sim.network` -- latency / bandwidth / NIC-serialization model.
* :mod:`repro.sim.topology` -- LAN and WAN (EC2-like) topologies.
* :mod:`repro.sim.disk` -- HDD/SSD models with synchronous and asynchronous
  write semantics (the paper's five storage modes).
* :mod:`repro.runtime.cpu` -- per-process CPU cost accounting (coordinator
  CPU utilization in Figure 3); backend-agnostic, re-exported here.
* :mod:`repro.sim.monitor` -- throughput timelines, latency samples and CDFs.
* :mod:`repro.sim.world` -- binds all of the above into one experiment
  environment.

All timestamps are in **seconds of simulated time**; all sizes are in bytes.
Simulations are deterministic for a fixed seed.
"""

from repro.sim.engine import Event, Simulator
from repro.runtime.actor import Process, Timer
from repro.sim.network import Network, NetworkConfig
from repro.sim.topology import Topology, lan_topology, wan_topology, EC2_REGION_RTT_MS
from repro.sim.disk import Disk, DiskConfig, StorageMode, disk_for_mode
from repro.runtime.cpu import CPU, CPUConfig
from repro.sim.monitor import Monitor
from repro.obs.stats import LatencyStats, ThroughputTimeline
from repro.sim.random import RandomStreams
from repro.sim.world import World

__all__ = [
    "Event",
    "Simulator",
    "Process",
    "Timer",
    "Network",
    "NetworkConfig",
    "Topology",
    "lan_topology",
    "wan_topology",
    "EC2_REGION_RTT_MS",
    "Disk",
    "DiskConfig",
    "StorageMode",
    "disk_for_mode",
    "CPU",
    "CPUConfig",
    "Monitor",
    "LatencyStats",
    "ThroughputTimeline",
    "RandomStreams",
    "World",
]
