"""Simulator wall-clock performance benchmark (the ``perf`` experiment).

Unlike every other experiment in :mod:`repro.bench`, this one does not
measure the *modelled* system -- it measures the simulator itself: how many
simulation events and application deliveries the engine pushes through per
second of **wall-clock** time on two fixed scenarios (a LAN ring pair and the
``wan3`` three-continent preset).  The nightly chaos campaigns and the
paper-scale figure benches are bound by exactly this number, so regressions
here translate directly into slower CI and less routine paper-scale data.

Three metric families come out of a run:

* **simulated-time metrics** (events and deliveries per simulated second,
  total event/delivery counts) -- fully deterministic, pinned exactly by
  ``tests/golden/bench_gates.json``.  A drift here means the *model* changed
  (different message counts), which is never an accident worth ignoring;
* **wall-clock metrics** (events/sec and delivered-commands/sec of wall
  time) -- the actual speed, subject to runner jitter, recorded in
  ``BENCH_perf.json`` for inspection;
* **the cost of watching** -- every scenario runs a second time with causal
  tracing at the default sampling: traced events/sec, the overhead ratio,
  and the traced event/delivery counts, which must equal the untraced ones
  (tracing schedules no simulator events).

``run_perf`` writes ``BENCH_perf.json`` next to the working directory by
default so both CI lanes can upload it as an artifact.  Profile a scenario
with ``python -m repro.bench perf --smoke --cprofile`` (top-25 cumulative
hotspots; see CONTRIBUTING.md).
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.drivers import ClosedLoopProposerDriver
from repro.bench.report import format_table
from repro.config import MultiRingConfig
from repro.multiring.deployment import Deployment, RingSpec
from repro.scenarios.topologies import get_preset
from repro.sim.topology import lan_topology
from repro.sim.world import World
from repro.types import Value

__all__ = [
    "run_perf",
    "build_perf_world",
    "golden_delivery_sequence",
    "PERF_SCENARIOS",
]

#: Scenario names the perf bench sweeps, in report order.
PERF_SCENARIOS = ("lan", "wan3")

#: Simulated-duration multiplier per scenario.  The WAN scenario is
#: latency-bound (few events per simulated second), so it runs much longer
#: to produce a comparable amount of measurable work -- sub-second wall
#: windows make the events/sec reading jitter by double-digit percentages.
_DURATION_SCALE = {"lan": 1.0, "wan3": 50.0}

_RINGS = ("ring-a", "ring-b")
_VALUE_SIZE = 512


def build_perf_world(
    scenario: str,
    seed: int = 7,
    threads: int = 8,
    value_size: int = _VALUE_SIZE,
    tracing: bool = False,
    trace_sample: int = 64,
) -> Tuple[World, Deployment, List[ClosedLoopProposerDriver]]:
    """Build one of the fixed perf scenarios (not yet started).

    ``lan`` is three nodes on one 10 Gbps site sharing two in-memory rings;
    ``wan3`` spreads the same ring pair over the three-continent preset used
    by the chaos campaigns.  Both are deliberately frozen: their golden numbers
    only hold while the scenario stays byte-identical.  ``tracing``
    turns on sampled causal tracing -- :func:`run_perf`'s traced pass, which
    measures what default-sampling instrumentation costs here.
    """
    if scenario == "lan":
        world = World(
            topology=lan_topology(),
            seed=seed,
            timeline_window=0.5,
            tracing=tracing,
            trace_sample=trace_sample,
        )
        config = MultiRingConfig.datacenter()
        sites: Dict[str, str] = {}
    elif scenario == "wan3":
        preset = get_preset("wan3")
        world = World(
            topology=preset.build(),
            seed=seed,
            timeline_window=0.5,
            tracing=tracing,
            trace_sample=trace_sample,
        )
        config = MultiRingConfig.wide_area()
        sites = {f"node-{i}": site for i, site in enumerate(preset.sites)}
    else:
        raise ValueError(f"unknown perf scenario {scenario!r}; expected one of {PERF_SCENARIOS}")

    deployment = Deployment(world, config)
    members = [f"node-{i}" for i in range(3)]
    for name in members:
        deployment.add_node(name, site=sites.get(name))
    for group in _RINGS:
        deployment.add_ring(RingSpec(group=group, members=list(members)))
    drivers = [
        ClosedLoopProposerDriver(
            deployment.node(name),
            group,
            value_size=value_size,
            threads=threads,
            series=f"perf-{group}",
        )
        for group in _RINGS
        for name in members
    ]
    return world, deployment, drivers


def _run_scenario(
    scenario: str,
    duration: float,
    threads: int,
    tracing: bool = False,
    trace_sample: int = 64,
) -> Dict:
    world, deployment, drivers = build_perf_world(
        scenario, threads=threads, tracing=tracing, trace_sample=trace_sample
    )
    world.start()
    for driver in drivers:
        driver.start()
    # The hot path allocates no cyclic garbage (refcounting reclaims
    # everything), so generational GC passes are pure measurement jitter
    # here; suspend the collector for the timed window.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    wall_start = time.perf_counter()
    try:
        world.run(until=duration)
    finally:
        wall_seconds = time.perf_counter() - wall_start
        if gc_was_enabled:
            gc.enable()

    events = world.sim.processed_events
    deliveries = sum(node.deliveries_count for node in deployment.nodes.values())
    completed = sum(driver.completed for driver in drivers)
    return {
        "scenario": scenario,
        "tracing": tracing,
        "sim_duration_s": duration,
        # Deterministic (simulated-time) metrics: pinned by the goldens.
        "events": events,
        "deliveries": deliveries,
        "completed_commands": completed,
        "sim_events_per_sim_sec": events / duration,
        "deliveries_per_sim_sec": deliveries / duration,
        # Wall-clock metrics: the actual simulator speed, never pinned.
        "wall_seconds": wall_seconds,
        "events_per_wall_sec": events / wall_seconds if wall_seconds > 0 else 0.0,
        "deliveries_per_wall_sec": deliveries / wall_seconds if wall_seconds > 0 else 0.0,
    }


def run_perf(
    duration: float = 2.0,
    scenarios: Sequence[str] = PERF_SCENARIOS,
    threads: int = 8,
    output: Optional[Path] = Path("BENCH_perf.json"),
) -> Dict:
    """Measure wall-clock simulator throughput on the fixed scenarios.

    Each scenario runs untraced, then traced; the traced pass adds
    ``traced_events``, ``traced_deliveries``, ``traced_events_per_wall_sec``
    and ``obs_overhead_x`` (untraced over traced events/sec) to its cell.
    Writes the raw results to ``output`` (``BENCH_perf.json`` by default;
    pass ``None`` to skip) so CI can upload them as an artifact.
    """
    results: Dict[str, Dict] = {}
    for scenario in scenarios:
        scaled = duration * _DURATION_SCALE.get(scenario, 1.0)
        cell = _run_scenario(scenario, duration=scaled, threads=threads)
        traced = _run_scenario(scenario, duration=scaled, threads=threads, tracing=True)
        cell["traced_events"] = traced["events"]
        cell["traced_deliveries"] = traced["deliveries"]
        cell["traced_events_per_wall_sec"] = traced["events_per_wall_sec"]
        cell["obs_overhead_x"] = (
            cell["events_per_wall_sec"] / traced["events_per_wall_sec"]
            if traced["events_per_wall_sec"] > 0
            else 0.0
        )
        results[scenario] = cell

    rows = []
    for scenario in scenarios:
        cell = results[scenario]
        rows.append(
            [
                scenario,
                cell["events"],
                f"{cell['events_per_wall_sec']:,.0f}",
                f"{cell['deliveries_per_wall_sec']:,.0f}",
                f"{cell['traced_events_per_wall_sec']:,.0f}",
                f"{cell['obs_overhead_x']:.2f}x",
                f"{cell['wall_seconds']:.2f}",
            ]
        )
    report = format_table(
        "Simulator perf: wall-clock events/sec (hot-path health)",
        [
            "scenario",
            "events",
            "events/s (wall)",
            "deliveries/s (wall)",
            "events/s (traced)",
            "trace overhead",
            "wall s",
        ],
        rows,
    )
    result = {
        "experiment": "perf",
        "duration": duration,
        "threads": threads,
        "scenarios": list(scenarios),
        "results": results,
        "report": report,
    }
    if output is not None:
        Path(output).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


# ----------------------------------------------------------------------
# golden-sequence capture (determinism contract)
# ----------------------------------------------------------------------
def golden_delivery_sequence(
    scenario: str = "wan3",
    duration: float = 2.0,
    threads: int = 4,
    observer: str = "node-0",
) -> Dict:
    """Run ``scenario`` and capture the exact delivery sequence at one learner.

    Returns a digest of every application delivery observed by ``observer``
    -- ``(group, instance, value uid, delivery timestamp)`` with the
    timestamp in ``float.hex`` form -- plus the total processed-event count.
    The golden test freezes this output: any engine or network optimization
    that changes a single simulated timestamp or reorders one delivery flips
    the digest.

    Value uids come from a process-global counter, so they are recorded
    *relative* to a sentinel allocated here: the digest stays stable no
    matter how many values earlier tests in the same process created.
    """
    uid_base = Value.create(None, 0).uid
    world, deployment, drivers = build_perf_world(scenario, threads=threads)
    node = deployment.node(observer)
    entries: List[List] = []

    def record(delivery) -> None:
        entries.append(
            [
                delivery.group,
                delivery.instance,
                delivery.value.uid - uid_base,
                world.sim.now.hex(),
            ]
        )

    node.on_deliver(record)
    world.start()
    for driver in drivers:
        driver.start()
    world.run(until=duration)

    blob = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    return {
        "scenario": scenario,
        "duration": duration,
        "threads": threads,
        "observer": observer,
        "deliveries": len(entries),
        "events_processed": world.sim.processed_events,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "head": entries[:20],
        "tail": entries[-5:],
    }
