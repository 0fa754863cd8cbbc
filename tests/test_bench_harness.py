"""Smoke tests for the benchmark harness (tiny scales; shapes only)."""

import pytest

from repro.bench.ablations import run_rate_leveling_ablation
from repro.bench.figure4 import run_figure4
from repro.bench.figure5 import run_figure5
from repro.bench.figure6 import run_figure6
from repro.bench.figure7 import run_figure7
from repro.bench.figure8 import run_figure8
from repro.bench.report import format_kv, format_series, format_table
from repro.sim.disk import StorageMode


class TestReport:
    def test_format_table_contains_headers_and_rows(self):
        text = format_table("Title", ["a", "b"], [[1, 2.5], ["x", 10000.0]])
        assert "Title" in text
        assert "a" in text and "b" in text
        assert "10,000" in text

    def test_format_series_and_kv(self):
        assert "cdf" in format_series("cdf", [(1.0, 0.5)], "ms", "fraction")
        assert "metric" in format_kv("block", {"k": 1})


class TestFigureRunnersSmoke:
    """Each runner is exercised once at a very small scale."""

    def test_figure4_smoke(self):
        result = run_figure4(
            systems=("cassandra", "mrp-store"),
            workloads=("A",),
            record_count=200,
            client_threads=4,
            client_machines=1,
            duration=1.0,
        )
        assert result["throughput_ops"]["cassandra"]["A"] > 0
        assert result["throughput_ops"]["mrp-store"]["A"] > 0
        assert "Figure 4" in result["report"]

    def test_figure5_smoke(self):
        result = run_figure5(client_counts=(4,), duration=1.0)
        assert result["results"]["dlog"][4]["throughput_ops"] > 0
        assert result["results"]["bookkeeper"][4]["throughput_ops"] > 0

    def test_figure6_smoke(self):
        result = run_figure6(ring_counts=(1, 2), duration=1.0, clients_per_ring=4)
        assert result["results"][2]["aggregate_ops"] > result["results"][1]["aggregate_ops"] * 0.5
        assert len(result["results"][2]["per_ring_ops"]) == 2

    def test_figure7_smoke(self):
        result = run_figure7(region_counts=(1, 2), duration=3.0, clients_per_region=4, record_count=400)
        assert result["results"][1]["aggregate_ops"] > 0
        assert result["results"][2]["aggregate_ops"] > 0
        assert result["results"][2]["latency_ms"] > 0

    def test_figure8_smoke(self):
        result = run_figure8(
            duration=20.0,
            crash_at=4.0,
            recover_at=12.0,
            checkpoint_interval=3.0,
            trim_interval=6.0,
            client_threads=4,
            record_count=100,
        )
        assert result["events"]["recoveries completed"] == 1
        assert result["events"]["checkpoints durable"] > 0
        assert result["phases"]["throughput before crash (ops/s)"] > 0
        assert result["throughput_timeline"]

    def test_rate_leveling_ablation_smoke(self):
        result = run_rate_leveling_ablation(duration=1.0)
        assert (
            result["with_leveling"]["throughput_ops"]
            > result["without_leveling"]["throughput_ops"]
        )

    def test_figure3_storage_mode_constants(self):
        from repro.bench.figure3 import DEFAULT_STORAGE_MODES, DEFAULT_VALUE_SIZES

        assert StorageMode.MEMORY in DEFAULT_STORAGE_MODES
        assert 32768 in DEFAULT_VALUE_SIZES

    def test_batching_smoke(self):
        from repro.bench.batching import run_batching

        # Enough closed-loop threads to keep batches full (3 nodes x 8).
        result = run_batching(
            batch_sizes=(1, 8), windows=(32,), proposer_threads=8, duration=0.5
        )
        unbatched = result["results"][32][1]["throughput_ops"]
        batched = result["results"][32][8]["throughput_ops"]
        assert batched > unbatched * 2  # the vertical-scalability knob works
        assert result["speedup_at_8"] > 2.0
        assert "Batching sweep" in result["report"]


class TestHarnessPresets:
    def test_unknown_experiment_rejected(self):
        from repro.bench.harness import run_experiment

        with pytest.raises(ValueError):
            run_experiment("figure99")
        with pytest.raises(ValueError):
            run_experiment("figure3", scale="galactic")

    def test_experiment_list_matches_runners(self):
        from repro.bench.harness import EXPERIMENTS

        assert set(EXPERIMENTS) == {
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "ablations",
            "reconfig",
            "batching",
            "chaos",
            "perf",
            "live",
            "workload",
        }


class TestRegressionGate:
    def test_direction_encoded_in_metric_names(self):
        from repro.bench.regression import compare_metrics

        baseline = {"metrics": {"x/throughput_ops": 100.0, "x/latency_ms": 10.0}}
        # Throughput down 30% and latency up 30%: both regress.
        current = {"metrics": {"x/throughput_ops": 70.0, "x/latency_ms": 13.0}}
        regressions, improvements, notes = compare_metrics(current, baseline, tolerance=0.2)
        assert len(regressions) == 2
        assert improvements == [] and notes == []

    def test_improvement_warns_instead_of_failing(self):
        from repro.bench.regression import compare_metrics

        baseline = {"metrics": {"x/throughput_ops": 100.0, "x/latency_ms": 10.0}}
        current = {"metrics": {"x/throughput_ops": 150.0, "x/latency_ms": 5.0}}
        regressions, improvements, notes = compare_metrics(current, baseline, tolerance=0.2)
        assert regressions == []
        assert len(improvements) == 2 and notes == []

    def test_within_tolerance_is_quiet(self):
        from repro.bench.regression import compare_metrics

        baseline = {"metrics": {"x/throughput_ops": 100.0}}
        current = {"metrics": {"x/throughput_ops": 90.0}}
        assert compare_metrics(current, baseline, tolerance=0.2) == ([], [], [])

    def test_scale_mismatch_refuses_to_compare(self, tmp_path, monkeypatch):
        import json

        from repro.bench import regression

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"scale": "smoke", "metrics": {}}))
        collected = {"scale": "quick", "metrics": {}}
        # main() takes the collector from SUITES, which bound the function at
        # import: replacing the module attribute would leave the real one in.
        _collector, default_baseline, default_output = regression.SUITES["smoke"]
        monkeypatch.setitem(
            regression.SUITES,
            "smoke",
            (lambda scale="smoke": collected, default_baseline, default_output),
        )
        code = regression.main(
            [
                "--scale", "quick",
                "--baseline", str(baseline),
                "--output", str(tmp_path / "out.json"),
            ]
        )
        assert code == 2  # config error, not a benchmark regression
        assert json.loads((tmp_path / "out.json").read_text()) == collected

    def test_missing_metric_is_a_regression(self):
        from repro.bench.regression import compare_metrics

        baseline = {"metrics": {"x/throughput_ops": 100.0}}
        regressions, _, _ = compare_metrics({"metrics": {}}, baseline, tolerance=0.2)
        assert len(regressions) == 1

    def test_committed_baseline_matches_gated_metrics(self):
        import json
        from pathlib import Path

        baseline_path = Path(__file__).parent.parent / "benchmarks" / "baselines" / "smoke.json"
        baseline = json.loads(baseline_path.read_text())
        assert baseline["scale"] == "smoke"
        for name in (
            "batching/batched_throughput_ops",
            "batching/unbatched_throughput_ops",
            "batching/speedup",
            "figure6/aggregate_ops",
        ):
            assert name in baseline["metrics"]
        assert baseline["metrics"]["batching/speedup"] >= 2.0
