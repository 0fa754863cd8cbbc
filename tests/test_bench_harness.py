"""Smoke tests for the benchmark harness (tiny scales; shapes only)."""

import pytest

from conftest import BENCH_GATES
from repro.bench.ablations import run_rate_leveling_ablation
from repro.bench.figure4 import run_figure4
from repro.bench.figure5 import run_figure5
from repro.bench.figure7 import run_figure7
from repro.bench.figure8 import run_figure8
from repro.bench.harness import run_experiment
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
        result = run_experiment("figure6", "smoke")
        assert result["results"][2]["aggregate_ops"] > result["results"][1]["aggregate_ops"] * 0.5
        assert len(result["results"][2]["per_ring_ops"]) == 2
        top = result["results"][max(result["ring_counts"])]
        assert top["aggregate_ops"] == BENCH_GATES["figure6/aggregate_ops"]
        # A mean goes through the built-in ``sum()``, which Python 3.12 made
        # compensated (Neumaier): its last bits may differ from 3.11's.
        assert top["latency_disk1_ms"] == pytest.approx(
            BENCH_GATES["figure6/latency_disk1_ms"], rel=1e-12
        )

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
        # Enough closed-loop threads to keep batches full (3 nodes x 8).
        result = run_experiment("batching", "smoke")
        unbatched = result["results"][32][1]["throughput_ops"]
        batched = result["results"][32][8]
        assert batched["throughput_ops"] > unbatched * 2  # the vertical-scalability knob works
        assert result["speedup_at_8"] > 2.0
        assert "Batching sweep" in result["report"]
        assert batched["throughput_ops"] == BENCH_GATES["batching/batched_throughput_ops"]
        # A mean: exact up to the 3.12 ``sum()`` change (see test_figure6_smoke).
        assert batched["latency_ms"] == pytest.approx(
            BENCH_GATES["batching/batched_latency_ms"], rel=1e-12
        )
        assert unbatched == BENCH_GATES["batching/unbatched_throughput_ops"]
        assert result["speedup_at_8"] == BENCH_GATES["batching/speedup"]


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


class TestBenchGates:
    def test_golden_file_holds_exactly_the_pinned_numbers(self):
        # Six smoke numbers, the four simulated-time perf rates and three
        # numbers of the sim-only storm: each is asserted by the test that
        # runs its experiment.  Wall-clock numbers are never pinned.
        assert sorted(BENCH_GATES) == [
            "batching/batched_latency_ms",
            "batching/batched_throughput_ops",
            "batching/speedup",
            "batching/unbatched_throughput_ops",
            "figure6/aggregate_ops",
            "figure6/latency_disk1_ms",
            "perf/lan_sim_deliveries_ops",
            "perf/lan_sim_events_ops",
            "perf/wan3_sim_deliveries_ops",
            "perf/wan3_sim_events_ops",
            "workload/completed_ops",
            "workload/p50_ms",
            "workload/p99_ms",
        ]
