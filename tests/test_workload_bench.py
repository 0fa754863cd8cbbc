"""The ``workload`` experiment, its scenario glue and its golden numbers."""

from __future__ import annotations

import json

import pytest

from conftest import BENCH_GATES
from repro.bench.workload import run_workload
from repro.errors import ConfigurationError
from repro.scenarios import flash_crowd_fault_plan
from repro.workloads.engine import PhaseSchedule


def _tiny_storm(**overrides):
    params = dict(
        duration=3.0,
        base_rate=20.0,
        spike_rate=120.0,
        spike_at=1.0,
        spike_duration=0.8,
        record_count=120,
        quiesce=1.0,
        backends=("sim",),
        output=None,
    )
    params.update(overrides)
    return run_workload(**params)


def test_workload_experiment_sim_storm_passes(tmp_path):
    output = tmp_path / "BENCH_workload.json"
    result = _tiny_storm(output=output)
    assert result["passed"], result["failures"]
    assert result["sim"]["completed"] == result["sim"]["issued"] > 0
    assert result["sim"]["migrations_installed"] is True
    assert sorted(result["sim"]["partitions"]) == ["p0", "p1", "p2", "p3"]
    # The persisted file carries the analytics section with SLO verdicts.
    payload = json.loads(output.read_text())
    assert payload["analytics"]["series"]["sim/openloop"]["count"] > 0
    assert isinstance(payload["analytics"]["slo_ok"], bool)
    assert "report" in payload and "_trace" not in payload
    # The recorded trace is returned in memory for the live-replay leg.
    assert result["_trace"].events


def test_workload_experiment_with_coordinator_crash_still_makes_progress():
    result = _tiny_storm(coordinator_crash=True)
    assert result["sim"]["coordinator_crash_faults"] == 1
    # A mid-peak coordinator crash may shed in-flight commands, but the
    # storm must still complete at least half its arrivals.
    assert result["sim"]["completion_ratio"] >= 0.5, result["failures"]


def test_flash_crowd_fault_plan_lands_inside_the_peak_phase():
    schedule = PhaseSchedule.flash_crowd(
        10.0, 200.0, at=4.0, spike_duration=2.0, duration=10.0
    )
    plan = flash_crowd_fault_plan(schedule, "ring-g0")
    (crash,) = plan.faults
    assert crash.target == "coordinator:ring-g0"
    assert 4.0 < crash.at < 6.0
    assert crash.at == pytest.approx(5.0)  # default: mid-peak
    assert crash.restart_at == pytest.approx(6.0)  # default: peak end
    # The schedule agrees the crash instant is inside the flash crowd.
    assert schedule.phase_at(crash.at).label == "flash-crowd"

    delayed = flash_crowd_fault_plan(schedule, "ring-g0", restart_delay=0.5)
    assert delayed.faults[0].restart_at == pytest.approx(5.5)
    with pytest.raises(ConfigurationError):
        flash_crowd_fault_plan(schedule, "ring-g0", crash_fraction=1.5)


def test_sim_storm_matches_bench_gates():
    from repro.bench.harness import EXPERIMENTS

    # The smoke storm on the simulator only: deterministic.
    _runner, presets = EXPERIMENTS["workload"]
    result = run_workload(**presets["smoke"], backends=("sim",), output=None)
    series = result["analytics"]["series"]["sim/openloop"]
    assert result["sim"]["completed"] == BENCH_GATES["workload/completed_ops"]
    assert series["p50_ms"] == BENCH_GATES["workload/p50_ms"]
    assert series["p99_ms"] == BENCH_GATES["workload/p99_ms"]


def test_workload_is_a_harness_experiment():
    from repro.bench.harness import EXPERIMENTS

    assert "workload" in EXPERIMENTS
