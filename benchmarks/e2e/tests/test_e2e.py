"""Tests of the benchmark itself; run with ``python -m pytest benchmarks/e2e/tests``.

Tier-1 ``testpaths`` does not include this directory: these start real TCP
deployments and take about a minute.
"""

import copy
import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SIMULATED = [name for name in WORKLOADS if name.startswith("sim-")]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


@functools.lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: bool = False):
    """``(last-line object, result file contents)`` of one ``--smoke`` run."""
    out = HERE / "out" / f"test-{workload}-{seed}-{int(trace)}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--smoke", "--out", str(out)] + (["--trace"] if trace else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload):
    last_line, result = smoke(workload, 5, trace=True)
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] and last_line["failed"] == 0 and last_line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in last_line["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in last_line["metrics"].values())
    for metric in SPEC["end_to_end"]:
        assert last_line["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert result["smoke"] is True and result["seed"] == 5
    # Self CPU times and the CPU time measured outside every span are taken
    # independently of time.process_time, which they must add up to.
    assert 0.95 <= result["workloads"][workload]["cpu_accounted_share"] <= 1.05


@pytest.mark.parametrize("workload", SIMULATED)
def test_traced_simulated_runs_never_call_codec_or_live_runtime(workload):
    last_line, result = smoke(workload, 5, trace=True)
    entry = result["workloads"][workload]
    assert not [name for name in entry["spans"] if name.startswith(("runtime.codec", "runtime.live"))]
    for name, metric in last_line["metrics"].items():
        if name.startswith(("runtime.codec.", "runtime.live.")):
            assert metric["value"] == 0, name
    assert entry["spans"]["sim:run"][0] > 0


@pytest.mark.parametrize("workload", SIMULATED)
def test_simulated_runs_repeat_exactly_for_one_seed(workload):
    _, first = smoke(workload, 5)
    _, second = smoke.__wrapped__(workload, 5)
    first, second = first["workloads"][workload], second["workloads"][workload]
    assert first["deterministic"] == second["deterministic"]
    assert set(first["deterministic"]) == {"events", "completed", "order_hash"}
    for name in ("ack_p50_ms", "ack_p99_ms"):
        assert first["metrics"][name] == second["metrics"][name]


def test_another_seed_changes_the_kv_workload():
    _, first = smoke("sim-kv-lan", 5)
    _, other = smoke("sim-kv-lan", 6)
    assert (first["workloads"]["sim-kv-lan"]["deterministic"]
            != other["workloads"]["sim-kv-lan"]["deterministic"])


def test_tracer_restores_every_patched_attribute():
    import tracing

    missing = object()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = [(owner, attr, raw if had_own else missing)
               for owner, attr, had_own, raw in tracer._patches]
    assert len(patched) > 20
    assert all(vars(owner)[attr] is not before for owner, attr, before in patched)
    tracer.restore()
    for owner, attr, before in patched:
        assert vars(owner).get(attr, missing) is before, (owner, attr)


def test_compare_refuses_smoke_results():
    smoke("sim-kv-lan", 5)
    out = str(HERE / "out" / "test-sim-kv-lan-5-0.json")
    done = subprocess.run([sys.executable, str(HERE / "compare.py"), out, out],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "smoke" in done.stderr


def verdicts(tmp_path, capsys, parents, changes):
    """compare.py's exit code and ``{metric: verdict}`` for full-length copies of smoke results."""
    import compare

    def write(side, results):
        paths = []
        for index, result in enumerate(results):
            paths.append(tmp_path / f"{side}{index}.json")
            paths[-1].write_text(json.dumps(dict(result, smoke=False)))
        return [str(path) for path in paths]

    code = compare.main(write("a", parents) + ["--change"] + write("b", changes))
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    return code, {row[1]: row[-1] for row in rows if row and row[0] == "sim-kv-lan"}


def changed(result, **metrics):
    """A deep copy of a sim-kv-lan result with some end-to-end metrics multiplied."""
    result = copy.deepcopy(result)
    for name, factor in metrics.items():
        result["workloads"]["sim-kv-lan"]["metrics"][name] *= factor
    return result


def test_compare_holds_modelled_metrics_to_one_percent_and_the_order_hash_to_equality(tmp_path, capsys):
    _, parent = smoke("sim-kv-lan", 5)
    assert verdicts(tmp_path, capsys, [parent], [parent])[0] == 0
    # Timed metrics have the declared bound; modelled ones repeat exactly, so 1 %.
    code, rows = verdicts(tmp_path, capsys, [parent], [changed(parent, ops_per_s=0.8, ack_p50_ms=1.02)])
    assert code == 1 and rows["ops_per_s"] == "ok" and rows["ack_p50_ms"] == "worse"
    slower_model = copy.deepcopy(parent)
    slower_model["workloads"]["sim-kv-lan"]["untraced_layers"]["sim.ops_per_sim_s"] *= 0.98
    code, rows = verdicts(tmp_path, capsys, [parent], [slower_model])
    assert code == 1 and rows["sim.ops_per_sim_s"] == "worse"
    reordered = copy.deepcopy(parent)
    reordered["workloads"]["sim-kv-lan"]["deterministic"]["order_hash"] = "0" * 16
    code, rows = verdicts(tmp_path, capsys, [parent], [reordered])
    assert code == 1 and rows["events,"] == "different"


def test_compare_takes_the_noise_from_the_spread_between_the_parents_runs(tmp_path, capsys):
    _, parent = smoke("sim-kv-lan", 5)
    slow = changed(parent, ops_per_s=0.6)
    steady = [changed(parent, ops_per_s=factor) for factor in (0.99, 1.0, 1.01)]
    noisy = [changed(parent, ops_per_s=factor) for factor in (0.6, 1.0, 1.4)]
    assert verdicts(tmp_path, capsys, steady, [slow] * 3)[1]["ops_per_s"] == "worse"
    code, rows = verdicts(tmp_path, capsys, noisy, [slow] * 3)
    assert code == 1 and rows["ops_per_s"] == "unresolved"  # not a pass: make more runs
    # A parent value of 0 has no share to take; any rise from it is worse.
    code, rows = verdicts(tmp_path, capsys, [changed(parent, peak_rss_mb=0.0)], [parent])
    assert code == 1 and rows["peak_rss_mb"] == "worse"
