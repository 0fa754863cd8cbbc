"""Batching & pipelining sweep: the vertical-scalability knob of one ring.

URingPaxos saturates a ring by (a) packing many application values into one
Paxos instance at the coordinator and (b) keeping a window of consensus
instances in flight.  This experiment sweeps both knobs on a single
three-process ring (the Figure 3 "dummy service" setup) and reports delivered
throughput and latency per ``(batch size, window)`` cell.

The default storage mode is the durable-log configuration (synchronous SSD
writes): every consensus instance costs one forced write at each acceptor, so
batching amortizes the dominant per-instance cost exactly as in the paper's
deployments.  In-memory mode shows a smaller, CPU-bound gain (the per-message
intake cost is not amortized by coordinator batching).

Its smoke-scale throughput, latency and speedup are pinned exactly by
``tests/golden/bench_gates.json``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench.drivers import ClosedLoopProposerDriver
from repro.bench.report import format_kv, format_table
from repro.config import BatchingConfig, MultiRingConfig, RingConfig
from repro.multiring.deployment import Deployment, RingSpec
from repro.sim.disk import StorageMode
from repro.sim.topology import lan_topology
from repro.sim.world import World

__all__ = ["run_batching", "DEFAULT_BATCH_SIZES", "DEFAULT_WINDOWS"]

DEFAULT_BATCH_SIZES = (1, 2, 4, 8, 16)
DEFAULT_WINDOWS = (1, 32)


def _run_cell(
    batch_size: int,
    window: int,
    value_size: int,
    proposer_threads: int,
    duration: float,
    storage_mode: StorageMode,
    seed: int,
) -> Dict[str, float]:
    """One cell of the sweep: one batch size, one pipeline window."""
    world = World(topology=lan_topology(), seed=seed, timeline_window=0.5)
    if batch_size > 1:
        batching = BatchingConfig.coordinator(max_batch_values=batch_size)
    else:
        batching = BatchingConfig(enabled=False)
    ring_config = RingConfig(
        storage_mode=storage_mode,
        batching=batching,
        pipeline_depth=window,
    )
    config = MultiRingConfig.datacenter(ring=ring_config)
    deployment = Deployment(world, config)
    members = ["node-1", "node-2", "node-3"]
    for name in members:
        deployment.add_node(name, cpu_config=ring_config.cpu)
    deployment.add_ring(
        RingSpec(group="ring-1", members=members, storage_mode=storage_mode),
        ring_config=ring_config,
    )
    drivers = [
        ClosedLoopProposerDriver(
            deployment.node(name),
            "ring-1",
            value_size=value_size,
            threads=proposer_threads,
            series="batching",
        )
        for name in members
    ]
    world.start()
    for driver in drivers:
        driver.start()
    warmup = duration * 0.2
    world.run(until=duration)
    # Drain the batcher tail so the last partial batch is not left waiting
    # for its flush timeout; reported throughput uses the [warmup, duration)
    # window, so the drain does not distort it.  Latency stats follow the
    # repo-wide convention of covering the full run including warmup.
    coordinator = deployment.coordinator_of("ring-1")
    coordinator.flush_batches()
    world.run(until=duration + 0.05)

    role = coordinator.role("ring-1")
    stats = world.monitor.latency_stats("batching")
    instances = role.next_instance
    values = role.batcher.values_offered if role.batcher is not None else role.values_proposed
    return {
        "throughput_ops": world.monitor.throughput_ops("batching", start=warmup, end=duration),
        "latency_ms": stats.mean * 1e3,
        "latency_p99_ms": stats.p99 * 1e3,
        "instances_started": float(instances),
        "values_per_instance": float(values) / instances if instances else 0.0,
        "window_stalls": float(role.window_stalls),
        "max_inflight": float(role.max_inflight),
        "completed": float(sum(driver.completed for driver in drivers)),
    }


def run_batching(
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    windows: Sequence[int] = DEFAULT_WINDOWS,
    value_size: int = 512,
    proposer_threads: int = 16,
    duration: float = 2.0,
    storage_mode: StorageMode = StorageMode.SYNC_SSD,
    seed: int = 42,
) -> Dict:
    """Sweep coordinator batch size x pipeline window on a single ring."""
    results: Dict[int, Dict[int, Dict[str, float]]] = {}
    for window in windows:
        results[window] = {}
        for batch in batch_sizes:
            results[window][batch] = _run_cell(
                batch, window, value_size, proposer_threads, duration, storage_mode, seed
            )

    widest = max(windows)
    baseline = results[widest][batch_sizes[0]]["throughput_ops"]
    speedups = {
        batch: (results[widest][batch]["throughput_ops"] / baseline if baseline else 0.0)
        for batch in batch_sizes
    }
    speedup_at_8 = max(
        (speedups[batch] for batch in batch_sizes if batch >= 8), default=0.0
    )

    headers = ["batch size"] + [f"window {window}" for window in windows]
    throughput_rows = [
        [batch] + [results[window][batch]["throughput_ops"] for window in windows]
        for batch in batch_sizes
    ]
    latency_rows = [
        [batch] + [results[window][batch]["latency_ms"] for window in windows]
        for batch in batch_sizes
    ]
    speedup_rows = [[batch, f"{speedups[batch]:.2f}x"] for batch in batch_sizes]
    summary = {
        "storage mode": storage_mode.label,
        "value size (bytes)": value_size,
        "proposer threads (per node)": proposer_threads,
        f"speedup at batch >= 8 (window {widest})": f"{speedup_at_8:.2f}x",
    }
    report = "\n\n".join(
        [
            format_table(
                "Batching sweep: delivered throughput (ops/s)", headers, throughput_rows
            ),
            format_table("Batching sweep: average latency (ms)", headers, latency_rows),
            format_table(
                f"Throughput speedup vs batch size 1 (window {widest})",
                ["batch size", "speedup"],
                speedup_rows,
            ),
            format_kv("Batching sweep parameters", summary),
        ]
    )
    return {
        "experiment": "batching",
        "results": results,
        "batch_sizes": list(batch_sizes),
        "windows": list(windows),
        "storage_mode": storage_mode.value,
        "speedup_at_8": speedup_at_8,
        "report": report,
    }
