"""Programmatic access to every experiment at a chosen scale.

The pytest-benchmark suite and EXPERIMENTS.md generation both need "run
experiment X at scale Y" as a single call; this module centralizes the scale
presets so the CLI (:mod:`repro.bench.__main__`), the benchmarks and the
documentation all use the same parameters.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.bench.ablations import run_merge_granularity_ablation, run_rate_leveling_ablation
from repro.bench.batching import run_batching
from repro.bench.chaos import run_chaos
from repro.bench.figure3 import run_figure3
from repro.bench.figure4 import run_figure4
from repro.bench.figure5 import run_figure5
from repro.bench.figure6 import run_figure6
from repro.bench.figure7 import run_figure7
from repro.bench.figure8 import run_figure8
from repro.bench.perf import run_perf
from repro.bench.reconfig import run_reconfig
from repro.bench.workload import run_workload
from repro.live import run_live

__all__ = ["run_experiment", "EXPERIMENTS", "SCALES"]

SCALES = ("smoke", "quick", "paper")


def _params(scale: str, smoke: Dict, quick: Dict, paper: Dict) -> Dict:
    if scale == "smoke":
        return smoke
    if scale == "paper":
        return paper
    return quick


def run_experiment(name: str, scale: str = "quick") -> Dict:
    """Run experiment ``name`` ("figure3" ... "figure8", "ablations") at ``scale``."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    if name == "figure3":
        return run_figure3(
            **_params(
                scale,
                smoke={"value_sizes": (512, 32768), "duration": 2.0},
                quick={"value_sizes": (512, 8192, 32768), "duration": 5.0},
                paper={"duration": 30.0},
            )
        )
    if name == "figure4":
        return run_figure4(
            **_params(
                scale,
                smoke={
                    "workloads": ("A", "E"),
                    "record_count": 500,
                    "client_threads": 8,
                    "client_machines": 1,
                    "duration": 2.0,
                },
                quick={
                    "record_count": 3000,
                    "client_threads": 32,
                    "client_machines": 2,
                    "duration": 5.0,
                },
                paper={"record_count": 100000, "client_threads": 100, "duration": 30.0},
            )
        )
    if name == "figure5":
        return run_figure5(
            **_params(
                scale,
                smoke={"client_counts": (1, 50), "duration": 2.0},
                quick={"client_counts": (1, 50, 200), "duration": 5.0},
                paper={"duration": 20.0},
            )
        )
    if name == "figure6":
        return run_figure6(
            **_params(
                scale,
                smoke={"ring_counts": (1, 2), "duration": 2.0, "clients_per_ring": 5},
                quick={"ring_counts": (1, 2, 3), "duration": 5.0, "clients_per_ring": 10},
                paper={"duration": 20.0, "clients_per_ring": 40},
            )
        )
    if name == "figure7":
        return run_figure7(
            **_params(
                scale,
                smoke={"region_counts": (1, 2), "duration": 5.0, "clients_per_region": 5},
                quick={"region_counts": (1, 2, 4), "duration": 10.0, "clients_per_region": 10},
                paper={"duration": 60.0, "clients_per_region": 40},
            )
        )
    if name == "figure8":
        return run_figure8(
            **_params(
                scale,
                smoke={
                    "duration": 30.0,
                    "crash_at": 5.0,
                    "recover_at": 20.0,
                    "checkpoint_interval": 4.0,
                    "trim_interval": 8.0,
                    "client_threads": 4,
                    "record_count": 200,
                },
                quick={
                    "duration": 60.0,
                    "crash_at": 10.0,
                    "recover_at": 40.0,
                    "checkpoint_interval": 8.0,
                    "trim_interval": 15.0,
                    "client_threads": 8,
                    "record_count": 500,
                },
                paper={"duration": 300.0},
            )
        )
    if name == "reconfig":
        return run_reconfig(
            **_params(
                scale,
                smoke={
                    "duration": 8.0,
                    "reconfig_at": 3.0,
                    "settle": 2.0,
                    "record_count": 300,
                    "client_threads": 4,
                    "client_machines": 1,
                },
                quick={
                    "duration": 12.0,
                    "reconfig_at": 4.0,
                    "settle": 3.0,
                    "record_count": 600,
                    "client_threads": 8,
                    "client_machines": 2,
                },
                paper={
                    "duration": 60.0,
                    "reconfig_at": 20.0,
                    "settle": 10.0,
                    "record_count": 5000,
                    "client_threads": 32,
                    "client_machines": 4,
                },
            )
        )
    if name == "batching":
        return run_batching(
            **_params(
                scale,
                smoke={
                    "batch_sizes": (1, 8),
                    "windows": (32,),
                    "proposer_threads": 8,
                    "duration": 1.0,
                },
                quick={
                    "batch_sizes": (1, 2, 4, 8, 16),
                    "windows": (1, 32),
                    "proposer_threads": 16,
                    "duration": 2.0,
                },
                paper={
                    "batch_sizes": (1, 2, 4, 8, 16, 32),
                    "windows": (1, 8, 32, 128),
                    "proposer_threads": 32,
                    "duration": 5.0,
                },
            )
        )
    if name == "chaos":
        return run_chaos(
            scale=scale,
            **_params(
                scale,
                smoke={"duration": 10.0, "settle": 2.5},
                quick={"duration": 12.0, "settle": 3.0},
                paper={"duration": 30.0, "settle": 5.0},
            ),
        )
    if name == "live":
        return run_live(
            **_params(
                scale,
                # Wall-clock localhost TCP runs; scale bounds the append count.
                smoke={"nodes": 3, "values": 300, "window": 32},
                quick={"nodes": 3, "values": 1000, "window": 32},
                paper={"nodes": 5, "values": 5000, "window": 64},
            )
        )
    if name == "perf":
        return run_perf(
            **_params(
                scale,
                # ``duration`` is the lan simulated window; wan3 runs a fixed
                # multiple of it (see repro.bench.perf._DURATION_SCALE).
                smoke={"duration": 1.0},
                quick={"duration": 2.0},
                paper={"duration": 5.0},
            )
        )
    if name == "workload":
        return run_workload(
            **_params(
                scale,
                # The storm runs on both backends at every scale; the live
                # leg replays a prefix of the sim-recorded trace over TCP.
                smoke={
                    "duration": 6.0,
                    "base_rate": 30.0,
                    "spike_rate": 240.0,
                    "spike_at": 2.0,
                    "spike_duration": 1.5,
                    "record_count": 240,
                    "live_replay_events": 60,
                    "quiesce": 1.5,
                },
                quick={
                    "duration": 12.0,
                    "base_rate": 40.0,
                    "spike_rate": 320.0,
                    "spike_at": 4.0,
                    "spike_duration": 3.0,
                    "record_count": 400,
                    "live_replay_events": 150,
                },
                paper={
                    "duration": 60.0,
                    "base_rate": 200.0,
                    "spike_rate": 2000.0,
                    "spike_at": 20.0,
                    "spike_duration": 10.0,
                    "record_count": 5000,
                    "users": 5_000_000,
                    "live_replay_events": 500,
                    "quiesce": 5.0,
                },
            )
        )
    if name == "ablations":
        duration = {"smoke": 2.0, "quick": 5.0, "paper": 20.0}[scale]
        leveling = run_rate_leveling_ablation(duration=duration)
        granularity = run_merge_granularity_ablation(duration=duration)
        return {
            "experiment": "ablations",
            "rate_leveling": leveling,
            "merge_granularity": granularity,
            "report": leveling["report"] + "\n\n" + granularity["report"],
        }
    raise ValueError(f"unknown experiment {name!r}")


EXPERIMENTS = (
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
)
