"""The chaos campaign experiment: geo-scale fault schedules with invariants.

``python -m repro.bench chaos`` sweeps scenario × fault-plan combinations on
the WAN presets and checks the global invariants after each run (the safety
oracle's total order, integrity, acyclic order and no acknowledged write
lost; replica convergence, merge liveness, bounded cross-ring delivery skew,
recovery completion, post-fault progress).
The nightly CI lane runs the quick scale and uploads ``BENCH_chaos.json``
plus the per-combo scenario traces; set ``CHAOS_TRACE_DIR`` to collect the
traces locally.

Scales:

* ``smoke`` -- 2 combos on ``wan3``, a few seconds of simulated time each;
* ``quick`` -- 6 combos (5 on the async-SSD ``wan3`` deployment, 1 disk-stall
  combo on a sync-SSD deployment);
* ``paper`` -- the quick sweep plus the 8-datacenter ``dc8`` preset.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.scenarios.campaign import CampaignRunner, ScenarioSpec
from repro.scenarios.faults import FaultPlan
from repro.sim.disk import StorageMode

__all__ = ["run_chaos", "build_combos"]


def _base_scenario(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="wan3-base",
        preset="wan3",
        partitions=3,
        replicas_per_partition=2,
        acceptors_per_partition=3,
        storage_mode=StorageMode.ASYNC_SSD,
        enable_recovery=True,
        client_threads=4,
        record_count=300,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _plans() -> Dict[str, FaultPlan]:
    """The standard fault plans (fault windows sit inside [2s, 6s])."""
    return {
        "coordinator-crash": FaultPlan("coordinator-crash").crash_coordinator(
            "ring-p0", at=2.0, restart_at=4.0
        ),
        "replica-crash": FaultPlan("replica-crash").crash_replica(
            "p1", 1, at=2.5, restart_at=5.0
        ),
        "region-partition": FaultPlan("region-partition").partition(
            ["eu-west-1"], ["us-east-1"], at=2.0, heal_at=4.5
        ),
        "delay-spike": FaultPlan("delay-spike").delay_spike(
            "eu-west-1", "ap-southeast-1", extra_ms=150.0, at=2.0, clear_at=5.0
        ),
        "mixed-storm": (
            FaultPlan("mixed-storm")
            .delay_spike("us-east-1", "ap-southeast-1", extra_ms=100.0, at=2.0, clear_at=4.0)
            .partition(["eu-west-1"], ["us-east-1"], at=2.5, heal_at=4.0)
            .crash_replica("p0", 1, at=4.5, restart_at=6.0)
        ),
        "disk-stall": FaultPlan("disk-stall").disk_stall("ring-p0", at=2.0, duration=2.0),
    }


def build_combos(scale: str) -> List[Tuple[ScenarioSpec, FaultPlan]]:
    """The scenario × fault-plan matrix for one scale."""
    plans = _plans()
    base = _base_scenario()
    syncdisk = _base_scenario(name="wan3-syncdisk", storage_mode=StorageMode.SYNC_SSD)
    if scale == "smoke":
        return [
            (base, plans["coordinator-crash"]),
            (base, plans["region-partition"]),
        ]
    combos: List[Tuple[ScenarioSpec, FaultPlan]] = [
        (base, plans["coordinator-crash"]),
        (base, plans["replica-crash"]),
        (base, plans["region-partition"]),
        (base, plans["delay-spike"]),
        (base, plans["mixed-storm"]),
        (syncdisk, plans["disk-stall"]),
    ]
    if scale == "paper":
        dc8 = _base_scenario(
            name="dc8-global",
            preset="dc8",
            partitions=8,
            client_threads=2,
            record_count=800,
        )
        dc8_partition = FaultPlan("continental-split").partition(
            ["eu-west-1", "eu-central-1"],
            ["us-east-1", "us-west-1", "us-west-2"],
            at=2.0,
            heal_at=5.0,
        )
        combos.extend(
            [
                (dc8, plans["coordinator-crash"]),
                (dc8, dc8_partition),
            ]
        )
    return combos


def run_chaos(
    scale: str = "quick",
    duration: float = 12.0,
    settle: float = 3.0,
    seed: int = 42,
    trace_dir: Optional[str] = None,
    tracing: bool = False,
    trace_sample: int = 64,
) -> Dict:
    """Run the chaos campaign at ``scale`` and return the aggregated results."""
    if trace_dir is None:
        trace_dir = os.environ.get("CHAOS_TRACE_DIR") or None
    combos = build_combos(scale)
    runner = CampaignRunner(
        combos,
        duration=duration,
        settle=settle,
        seed=seed,
        trace_dir=trace_dir,
        tracing=tracing,
        trace_sample=trace_sample,
    )
    result = runner.run()
    result["scale"] = scale
    result["duration"] = duration
    verdict = "ALL INVARIANTS HELD" if result["passed"] else "INVARIANT VIOLATIONS"
    result["report"] += f"\n\n{len(combos)} combos at scale {scale!r}: {verdict}"
    return result
