"""The experiment environment.

A :class:`World` bundles everything a simulation needs -- the event engine,
the network (with its topology), the metric monitor, deterministic random
streams, the trace buffer and the registry of processes.  Protocol code never
instantiates these pieces individually; it receives a world and builds on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError, NetworkError
from repro.obs import Observability
from repro.runtime.interfaces import StorageMode
from repro.sim.engine import Simulator
from repro.sim.monitor import Monitor
from repro.sim.network import Network, NetworkConfig
from repro.sim.random import RandomStreams
from repro.sim.topology import Topology, lan_topology
from repro.sim.trace import Trace

__all__ = ["World"]


class World:
    """Container for one simulated deployment.

    ``World`` is the simulator's implementation of the
    :class:`~repro.runtime.interfaces.Runtime` protocol: ``.sim`` is its
    :class:`~repro.runtime.interfaces.Clock`, ``.network`` its
    :class:`~repro.runtime.interfaces.Transport`, and :meth:`new_store`
    builds the timing-model disks behind the
    :class:`~repro.runtime.interfaces.StableStore` surface.  It is also its
    own :class:`~repro.runtime.interfaces.Cluster`: every node runs here.
    """

    #: Hosted processes use the default CPU cost model.
    cpu_config = None

    def __init__(
        self,
        topology: Optional[Topology] = None,
        seed: int = 0,
        network_config: Optional[NetworkConfig] = None,
        timeline_window: float = 1.0,
        trace_enabled: bool = False,
        default_site: Optional[str] = None,
        tracing: bool = False,
        trace_sample: int = 64,
    ) -> None:
        self.sim = Simulator()
        self.topology = topology or lan_topology()
        self.network = Network(self.sim, self.topology, network_config)
        self.monitor = Monitor(timeline_window=timeline_window)
        self.rng = RandomStreams(seed)
        self.trace = Trace(enabled=trace_enabled)
        # Observability bundle (causal tracing + metrics registry), shared by
        # every process of this world.  ``tracing`` enables sampled causal
        # traces (``trace_sample`` = every Nth proposed value); the metrics
        # side is always available -- collectors cost nothing until snapshot.
        self.obs = Observability(tracing=tracing, trace_sample=trace_sample)
        self.obs.metrics.add_collector(self._world_metric_samples)
        self._processes: Dict[str, "Process"] = {}
        if default_site is None:
            default_site = self.topology.sites[0]
        if not self.topology.has_site(default_site):
            raise ConfigurationError(f"default site {default_site!r} is not in the topology")
        self.default_site = default_site
        self._started = False

    # ------------------------------------------------------------------
    # process registry
    # ------------------------------------------------------------------
    def register(self, process: "Process", site: str) -> None:
        """Called by :class:`~repro.runtime.actor.Process` on construction."""
        if process.name in self._processes:
            raise ConfigurationError(f"a process named {process.name!r} already exists")
        self._processes[process.name] = process
        self.network.attach(process, site)
        if self._started:
            # Late-joining processes (e.g. a replacement replica) start
            # immediately.
            self.sim.call_later(0.0, process.on_start)

    def process(self, name: str) -> "Process":
        try:
            return self._processes[name]
        except KeyError:
            raise NetworkError(f"unknown process {name!r}") from None

    def get_process(self, name: str) -> Optional["Process"]:
        """The process named ``name``, or ``None`` (no-raise hot-path lookup)."""
        return self._processes.get(name)

    def has_process(self, name: str) -> bool:
        return name in self._processes

    def processes(self) -> List["Process"]:
        return list(self._processes.values())

    def runtime_of(self, name: str) -> "World":
        """The runtime hosting node ``name``: the one world hosts them all."""
        return self

    # ------------------------------------------------------------------
    # storage factory (Runtime protocol)
    # ------------------------------------------------------------------
    def new_store(self, mode: StorageMode) -> Optional["Disk"]:
        """A stable-storage device for ``mode`` (``None`` for in-memory)."""
        return disk_for_mode(self.sim, mode)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Invoke ``on_start`` on every registered process (once)."""
        if self._started:
            return
        self._started = True
        for process in list(self._processes.values()):
            self.sim.call_later(0.0, process.on_start)

    @property
    def started(self) -> bool:
        """True once :meth:`start` has run (late joiners start immediately)."""
        return self._started

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Start all processes (if needed) and run the simulation."""
        self.start()
        return self.sim.run(until=until, max_events=max_events)

    def run_for(self, duration: float) -> float:
        self.start()
        return self.sim.run_for(duration)

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _world_metric_samples(self):
        """Pull-collector for world-level counters (network, engine, monitor)."""
        network = self.network
        samples = [
            ("mrp_network_messages_sent_total", network.messages_sent),
            ("mrp_network_messages_delivered_total", network.messages_delivered),
            ("mrp_network_messages_dropped_total", network.messages_dropped),
            ("mrp_network_messages_blocked_total", network.messages_blocked),
            ("mrp_sim_heap_compactions_total", self.sim.compactions),
            ("mrp_sim_events_total", self.sim.processed_events),
            ("mrp_sim_time_seconds", self.sim.now),
        ]
        for name, value in sorted(self.monitor.counters().items()):
            label = "".join(c if c.isalnum() else "_" for c in name)
            samples.append((f"mrp_monitor_{label}_total", value))
        return samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"World(t={self.sim.now:.3f}, processes={len(self._processes)})"


# Imported late to avoid a circular import at module load time.
from repro.sim.disk import Disk, disk_for_mode  # noqa: E402  (intentional tail import)
from repro.runtime.actor import Process  # noqa: E402  (intentional tail import)
