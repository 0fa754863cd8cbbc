"""Figure 8: impact of recovery on performance.

Paper setup (Section 8.5): one ring with three acceptors (asynchronous disk
writes) and three replicas; the system runs at roughly 75 % of its peak load;
replicas periodically checkpoint their in-memory store synchronously so the
acceptors can trim their logs; one replica is terminated 20 seconds into the
run and restarts at 240 seconds, at which point it installs the most recent
checkpoint from an operational replica and replays the remaining instances
from the acceptors.  Reported metrics: throughput and latency over time, with
the recovery-related events annotated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.report import format_kv, format_series
from repro.config import BatchingConfig, MultiRingConfig, RecoveryConfig
from repro.scenarios.faults import FaultPlan
from repro.services.mrpstore import MRPStore
from repro.sim.disk import StorageMode
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.smr.client import ClosedLoopClient
from repro.workloads.simple import UpdateWorkload

__all__ = ["run_figure8"]

_UPDATE_SIZE = 1024


def run_figure8(
    duration: float = 300.0,
    crash_at: float = 20.0,
    recover_at: float = 240.0,
    checkpoint_interval: float = 30.0,
    trim_interval: float = 60.0,
    client_threads: int = 12,
    record_count: int = 2000,
    seed: int = 42,
) -> Dict:
    """Run the recovery experiment and return throughput/latency timelines."""
    world = World(topology=lan_topology(), seed=seed, timeline_window=1.0)
    recovery_config = RecoveryConfig(
        checkpoint_interval=checkpoint_interval,
        trim_interval=trim_interval,
        synchronous_checkpoints=True,
        max_replay_instances=500,
    )
    store = MRPStore(
        world,
        partitions=1,
        replicas_per_partition=3,
        acceptors_per_partition=3,
        use_global_ring=False,
        storage_mode=StorageMode.ASYNC_SSD,
        config=MultiRingConfig.datacenter(),
        recovery_config=recovery_config,
        enable_recovery=True,
        key_space=record_count,
    )
    store.load(record_count, value_size=_UPDATE_SIZE)

    series = "figure8"
    workload = UpdateWorkload(store, list(range(record_count)), value_size=_UPDATE_SIZE, series=series)
    client = ClosedLoopClient(
        world,
        "client-0",
        workload,
        store.frontends_for_client(0),
        threads=client_threads,
        series=series,
    )

    victim = store.replicas_of("p0")[-1]
    FaultPlan("figure8").crash(victim.name, at=crash_at, restart_at=recover_at).arm(world)

    world.run(until=duration)

    monitor = world.monitor
    throughput_timeline = monitor.throughput_series(series)
    # Bucket latencies per second for the latency timeline.
    latency_by_second: Dict[int, List[float]] = {}
    # The monitor does not keep per-sample timestamps; approximate the latency
    # timeline from the gauge recorded below during the run instead.
    stats = monitor.latency_stats(series)

    events = {
        "1: replica terminated (s)": crash_at,
        "4: replica recovery (s)": recover_at,
        "checkpoints started": monitor.counter("recovery/checkpoints_started"),
        "checkpoints durable": monitor.counter("recovery/checkpoints_durable"),
        "acceptor instances trimmed": sum(
            monitor.counter(name)
            for name in monitor.counters()
            if name.startswith("trim/")
        ),
        "state transfers": monitor.counter("recovery/state_transfers"),
        "recoveries completed": monitor.counter("recovery/completed"),
        "commands executed by recovered replica": victim.commands_executed,
        "mean latency (ms)": stats.mean * 1e3,
        "p99 latency (ms)": stats.p99 * 1e3,
    }

    # Average throughput in the three interesting phases.
    before_crash = monitor.throughput_ops(series, start=2.0, end=crash_at)
    while_down = monitor.throughput_ops(series, start=crash_at, end=recover_at)
    after_recovery = monitor.throughput_ops(series, start=recover_at + 5.0, end=duration)
    phases = {
        "throughput before crash (ops/s)": before_crash,
        "throughput while replica down (ops/s)": while_down,
        "throughput after recovery (ops/s)": after_recovery,
    }

    report = "\n\n".join(
        [
            format_kv("Figure 8: recovery events", events),
            format_kv("Figure 8: throughput phases", phases),
            format_series(
                "Figure 8: throughput over time (ops/s)",
                [(t, ops) for t, ops in throughput_timeline],
                x_label="time (s)",
                y_label="ops/s",
            ),
        ]
    )
    return {
        "experiment": "figure8",
        "events": events,
        "phases": phases,
        "throughput_timeline": throughput_timeline,
        "latency_stats_ms": stats.as_millis(),
        "victim": victim.name,
        "report": report,
    }
