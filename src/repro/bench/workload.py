"""The ``workload`` experiment: an open-loop flash-crowd storm, both backends.

This is the million-user stress scenario the workload engine exists for:

1. **Sim storm.**  An open-loop Zipf flash crowd (modeling a million users by
   arrival sampling, no per-client objects) hits a range-partitioned
   MRP-Store; the spike phase sharpens the skew *and* moves the hotspot onto
   one partition's key range.  Mid-spike the store scales out live (a second
   ring, both partitions split) through the elastic re-partitioning path --
   the open-loop target re-resolves routing on miss, so traffic follows the
   migration without a restart.  Optionally a
   :func:`~repro.scenarios.flashcrowd.flash_crowd_fault_plan` crashes the
   hot ring's coordinator mid-peak.
2. **Live replay.**  A prefix of the storm's recorded trace replays over the
   real asyncio/TCP backend through the public facade; the replayed arrival
   stream must match the recorded prefix byte for byte (same events, same
   ``float.hex`` instants).

The run writes ``BENCH_workload.json`` with an embedded ``analytics``
section (:func:`repro.bench.analytics.make_analytics`): per-series latency
percentiles and SLO verdicts.  ``passed`` gates only on hard invariants --
completion ratio, migration installation, replay fidelity -- while SLO
verdicts are only reported.  The sim-only storm's completed count and
p50/p99 are pinned exactly by ``tests/golden/bench_gates.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.analytics import SLOTarget, make_analytics
from repro.bench.report import format_kv, format_table
from repro.config import MultiRingConfig
from repro.coordination.reconfig import ReconfigController
from repro.reconfig.elastic import migrations_installed, scale_out
from repro.services.mrpstore import MRPStore
from repro.sim.disk import StorageMode
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.workloads.engine import (
    OpenLoopLoadGenerator,
    OpenLoopSampler,
    PhaseSchedule,
    WorkloadManager,
    WorkloadTrace,
)

__all__ = ["run_workload"]


def _phase_latencies(
    entries, schedule: PhaseSchedule
) -> Dict[str, List[float]]:
    """Completed-entry latencies bucketed by the phase their arrival hit."""
    buckets: Dict[str, List[float]] = {}
    for entry in entries:
        if entry.latency is None or entry.issued_at >= schedule.duration:
            continue
        label = schedule.phase_at(entry.issued_at).label or "phase"
        buckets.setdefault(label, []).append(entry.latency)
    return buckets


def _run_sim_storm(
    schedule: PhaseSchedule,
    *,
    record_count: int,
    users: int,
    seed: int,
    replicas_per_partition: int,
    acceptors_per_partition: int,
    value_size: int,
    scale_out_at: float,
    quiesce: float,
    coordinator_crash: bool,
) -> Tuple[Dict, WorkloadTrace]:
    world = World(topology=lan_topology(), seed=seed, timeline_window=0.25)
    store = MRPStore(
        world,
        partitions=2,
        rings=1,
        replicas_per_partition=replicas_per_partition,
        acceptors_per_partition=acceptors_per_partition,
        use_global_ring=False,
        scheme="range",
        storage_mode=StorageMode.MEMORY,
        config=MultiRingConfig.datacenter(),
        key_space=record_count,
    )
    store.load(record_count, value_size=value_size)

    sampler = OpenLoopSampler(schedule, key_space=record_count, users=users, seed=seed)
    trace = WorkloadTrace(meta=sampler.meta())
    generator = OpenLoopLoadGenerator(
        world,
        "openloop-storm",
        store.open_loop_target(value_size=value_size),
        sampler.events(),
        series="workload",
        recorder=trace,
    )
    manager = WorkloadManager(world, generator)

    crash_events = 0
    if coordinator_crash:
        from repro.scenarios.flashcrowd import flash_crowd_fault_plan

        spike = schedule.peak_phase()
        hot_key = store.key(int(spike.hotspot * record_count) % record_count)
        hot_group = store.current_map.group_of_key(hot_key)
        plan = flash_crowd_fault_plan(schedule, hot_group)
        plan.arm(world, deployment=store.deployment, store=store)
        crash_events = len(plan.faults)

    manager.start()
    world.run(until=scale_out_at)

    # Mid-spike elastic scale-out: 1 -> 2 rings, 2 -> 4 partitions, while
    # the storm keeps firing (the open-loop target re-routes on miss).
    controller = ReconfigController(world, store.deployment)
    quarter = store.key(record_count // 4)
    three_quarters = store.key(3 * record_count // 4)
    migration_ids = scale_out(
        store,
        controller,
        new_group="ring-g1",
        splits=[("p0", "p2", quarter), ("p1", "p3", three_quarters)],
    )
    world.run(until=schedule.duration)
    manager.stop()
    world.run(until=schedule.duration + quiesce)

    latencies = manager.latencies()
    completion_ratio = generator.completed / generator.issued if generator.issued else 0.0
    return (
        {
            "issued": generator.issued,
            "completed": generator.completed,
            "completion_ratio": completion_ratio,
            "outstanding_at_end": generator.outstanding,
            "expected_arrivals": schedule.expected_arrivals(),
            "migrations_started": len(migration_ids),
            "migrations_installed": migrations_installed(store, ["p2", "p3"]),
            "partition_map_version": store.current_map.version,
            "partitions": sorted(store.partitions),
            "coordinator_crash_faults": crash_events,
            "latencies": latencies,
            "phase_latencies": _phase_latencies(generator.entries, schedule),
        },
        trace,
    )


def _run_live_replay(
    trace: WorkloadTrace,
    *,
    events: int,
    nodes: int,
    seed: int,
    timeout: float,
) -> Dict:
    from repro.api import AtomicMulticast

    prefix = trace.prefix(events)
    if not prefix.events:
        return {"skipped": "recorded trace is empty; nothing to replay"}
    am = AtomicMulticast(backend="live", seed=seed)
    names = [f"wl{i}" for i in range(nodes)]
    am.ring("wl-ring", acceptors=names, learners=names)
    # The load generator is one more node: declared before the context.
    manager = am.workload("wl-ring", replay=prefix.events, record=True)
    with am:
        completed = manager.drain(timeout=timeout)
        manager.stop()
    # Byte-for-byte fidelity: the facade recorded exactly the events it was
    # told to replay, in order, at the same float.hex instants.
    replay_exact = manager.trace is not None and manager.trace.events == prefix.events
    return {
        "replayed": len(prefix.events),
        "completed": completed,
        "replay_exact": replay_exact,
        "latencies": manager.latencies(),
    }


def run_workload(
    duration: float = 12.0,
    base_rate: float = 40.0,
    spike_rate: float = 320.0,
    spike_at: float = 4.0,
    spike_duration: float = 3.0,
    spike_hotspot: float = 0.55,
    record_count: int = 400,
    users: int = 1_000_000,
    value_size: int = 256,
    seed: int = 42,
    replicas_per_partition: int = 2,
    acceptors_per_partition: int = 3,
    scale_out_at: Optional[float] = None,
    quiesce: float = 2.0,
    coordinator_crash: bool = False,
    live_replay_events: int = 150,
    live_nodes: int = 3,
    live_timeout: float = 90.0,
    backends: Sequence[str] = ("sim", "live"),
    slo_p50_ms: float = 100.0,
    slo_p99_ms: float = 500.0,
    min_completion_ratio: Optional[float] = None,
    output: Optional[Path] = Path("BENCH_workload.json"),
) -> Dict:
    """Run the flash-crowd storm on the sim, then replay its trace live.

    ``backends`` selects what runs: ``("sim",)`` keeps the run fully
    deterministic (the golden storm test uses this), the default adds the
    wall-clock TCP replay.  ``passed`` gates on completion ratio, migration
    installation and replay fidelity -- the SLO verdicts (``slo_p50_ms`` /
    ``slo_p99_ms`` against each series) are reported, not gated, because
    wall-clock percentiles are machine-dependent.
    """
    schedule = PhaseSchedule.flash_crowd(
        base_rate,
        spike_rate,
        at=spike_at,
        spike_duration=spike_duration,
        duration=duration,
        spike_hotspot=spike_hotspot,
    )
    if scale_out_at is None:
        scale_out_at = spike_at + spike_duration / 2.0
    if min_completion_ratio is None:
        # A mid-peak coordinator crash legitimately sheds in-flight commands.
        min_completion_ratio = 0.5 if coordinator_crash else 0.98

    failures: List[str] = []
    sim: Dict = {}
    trace = WorkloadTrace()
    if "sim" in backends:
        sim, trace = _run_sim_storm(
            schedule,
            record_count=record_count,
            users=users,
            seed=seed,
            replicas_per_partition=replicas_per_partition,
            acceptors_per_partition=acceptors_per_partition,
            value_size=value_size,
            scale_out_at=scale_out_at,
            quiesce=quiesce,
            coordinator_crash=coordinator_crash,
        )
        if sim["completion_ratio"] < min_completion_ratio:
            failures.append(
                f"sim: completion ratio {sim['completion_ratio']:.3f} below "
                f"{min_completion_ratio:.2f} ({sim['completed']}/{sim['issued']})"
            )
        if not sim["migrations_installed"]:
            failures.append("sim: scale-out migrations not installed on every replica")

    live: Dict = {"skipped": "live backend not selected"}
    if "live" in backends:
        if not trace.events:
            live = {"skipped": "no recorded sim trace to replay"}
        else:
            live = _run_live_replay(
                trace,
                events=live_replay_events,
                nodes=live_nodes,
                seed=seed,
                timeout=live_timeout,
            )
            if "skipped" not in live:
                if not live["replay_exact"]:
                    failures.append("live: replayed stream diverged from the recorded trace")
                if live["completed"] < live["replayed"]:
                    failures.append(
                        f"live: only {live['completed']}/{live['replayed']} "
                        "replayed arrivals completed"
                    )

    # Analytics: per-series percentiles + SLO verdicts (reported, not gated).
    series_samples: Dict[str, List[float]] = {}
    slos: List[SLOTarget] = []
    if sim.get("latencies"):
        series_samples["sim/openloop"] = sim["latencies"]
        slos.append(SLOTarget("sim/openloop", p50_ms=slo_p50_ms, p99_ms=slo_p99_ms))
        for label, samples in sim.get("phase_latencies", {}).items():
            series_samples[f"sim/phase/{label}"] = samples
    if live.get("latencies"):
        series_samples["live/replay"] = live["latencies"]
        slos.append(SLOTarget("live/replay", p50_ms=slo_p50_ms, p99_ms=slo_p99_ms))
    analytics = make_analytics(series_samples, slos)

    rows = []
    for name in sorted(series_samples):
        summary = analytics["series"][name]
        rows.append(
            [
                name,
                summary.get("count", 0),
                f"{summary.get('p50_ms', 0.0):.2f}",
                f"{summary.get('p99_ms', 0.0):.2f}",
                f"{summary.get('p999_ms', 0.0):.2f}",
            ]
        )
    report = format_table(
        "Open-loop flash crowd: latency by series (ms)",
        ["series", "n", "p50", "p99", "p99.9"],
        rows,
    )
    summary_kv = {
        "schedule": " -> ".join(
            f"{p.label}@{p.rate:g}/s" for p in schedule.phases
        ),
        "sim issued/completed": f"{sim.get('issued', 0)}/{sim.get('completed', 0)}",
        "sim migrations installed": sim.get("migrations_installed", "n/a"),
        "live replayed/completed": (
            f"{live.get('replayed', 0)}/{live.get('completed', 0)}"
            if "skipped" not in live
            else live["skipped"]
        ),
        "live replay byte-exact": live.get("replay_exact", "n/a"),
        "SLO verdicts ok": analytics["slo_ok"],
    }
    report += "\n\n" + format_kv("Storm summary", summary_kv)
    if failures:
        report += "\nFAILURES:\n" + "\n".join(f"  - {line}" for line in failures)

    # Raw latency sample lists are large and already distilled into the
    # analytics section; drop them from the persisted result.
    sim_out = {k: v for k, v in sim.items() if k not in ("latencies", "phase_latencies")}
    live_out = {k: v for k, v in live.items() if k != "latencies"}
    result = {
        "experiment": "workload",
        "seed": seed,
        "backends": list(backends),
        "schedule": schedule.describe(),
        "users": users,
        "record_count": record_count,
        "sim": sim_out,
        "live": live_out,
        "analytics": analytics,
        "report": report,
        "passed": not failures,
        "failures": failures,
    }
    if output is not None:
        Path(output).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    # In-memory extras for callers (tests); not persisted.
    result["_trace"] = trace
    result["_series_samples"] = series_samples
    return result
