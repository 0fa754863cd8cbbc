"""The repository's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py --seed 7                 # all five, end to end
    python3 benchmarks/e2e/run.py --seed 7 --trace         # ... and per layer
    python3 benchmarks/e2e/run.py --workload sim-kv-lan --seed 7 --seconds 15 --trace 0

Every workload runs in a fresh child process (child.py), one after another;
this process only starts them, waits, and reports.  ``--trace 0`` is the
end-to-end pass: one untraced measured run, plus set-up-only children so that
``setup_s`` is a median.  ``--trace 1`` is the per-layer pass: an untraced and
a traced run of half the length each, whose ratio is the tracing overhead.
``--trace`` alone does both.  What is measured, and why, is in README.md; the
metric names, units, directions and bounds are in BENCHMARK.json.

The last line of standard output is one JSON object.  For a single workload
it has exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every oracle passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: How many times a workload is set up for one ``setup_s`` (the median).
SETUPS = 5
#: ``--smoke`` (the tests' mode) measures this share of the declared length.
SMOKE_SHARE = 1 / 20
BOTH = 2


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, mode: str) -> Dict:
    """Run child.py once and return the object it printed."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, "--out-dir", str(OUT), "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    # The child inherits nothing but what is on its command line: a fixed
    # hash seed and the path to the library under test.
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} ({mode}) exited with code {done.returncode}")
    return json.loads(lines[-1])


def end_to_end_pass(workload: str, seed: int, seconds: float) -> Dict:
    measured = child(workload, seed, seconds, "measure")
    setups = [measured["setup_s"]] + [
        child(workload, seed, seconds, "setup")["setup_s"] for _ in range(SETUPS - 1)
    ]
    metrics = dict(measured["metrics"], setup_s=statistics.median(setups))
    return {
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "problems": measured["problems"],
        "metrics": metrics,
        "samples": dict.fromkeys(metrics, measured["acked"]) | {"setup_s": SETUPS, "peak_rss_mb": 1},
        "setups_s": setups,
        "deterministic": measured["deterministic"],
        # proc.* of the measured window and, simulated, the modelled sim.ops_per_sim_s.
        "untraced_layers": measured["layers"],
    }


def per_layer_pass(workload: str, seed: int, seconds: float, names: List[str]) -> Dict:
    untraced = child(workload, seed, seconds / 2, "measure")
    traced = child(workload, seed, seconds / 2, "traced")
    layers = dict.fromkeys(names, 0.0)
    layers.update(traced["layers"])
    layers.update(untraced["layers"])
    layers["trace.overhead_share"] = (
        1.0 - traced["metrics"]["ops_per_s"] / untraced["metrics"]["ops_per_s"]
    )
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "problems": untraced["problems"] + traced["problems"],
        "per_layer": layers,
        "spans": traced["spans"],
        "cpu_accounted_share": traced["cpu_accounted_share"],
        "trace_file": traced["trace_file"],
        "traced_ops": traced["acked"],
    }


def report(workload: str, title: str, values: Dict[str, float], declared: List[Dict],
           samples: Optional[Dict[str, int]] = None) -> Dict[str, Dict]:
    """Print ``values`` by name with their declared units; return the contract's form."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(values))
    if missing:
        raise ChildFailed(f"{workload}: no value for declared metrics {missing}")
    print(f"{workload}: {title}")
    for name, unit in units.items():
        count = f"  (n={samples[name]})" if samples else ""
        print(f"  {name:<36} {values[name]:>16.6g} {unit}{count}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", help="repeatable; default: all five")
    parser.add_argument("--trace", type=int, nargs="?", const=BOTH, default=0, choices=(0, 1, BOTH),
                        help="0: end to end (default); 1: per layer; no value: both")
    parser.add_argument("--seconds", type=float, help="measured length; default: run_seconds")
    parser.add_argument("--smoke", action="store_true", help="1/20 length, for the tests only")
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing: nothing to measure", file=sys.stderr)
        return 2
    names = [entry["name"] for entry in spec["workloads"]]
    chosen = args.workload or names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json declares {names}")
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.smoke:
        seconds *= SMOKE_SHARE
    OUT.mkdir(exist_ok=True)

    result = {
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "date": time.strftime("%Y-%m-%d"),
        },
        "workloads": {},
    }
    last_line: Dict = {}
    per_layer_names = [metric["name"] for metric in spec["per_layer"]]
    for workload in chosen:
        entry: Dict = {"attempted": 0, "failed": 0, "problems": []}
        metrics: Dict[str, Dict] = {}
        if args.trace in (0, BOTH):
            passed = end_to_end_pass(workload, args.seed, seconds)
            metrics.update(
                report(workload, "end to end", passed["metrics"], spec["end_to_end"], passed["samples"])
            )
            kept = ("metrics", "setups_s", "deterministic", "untraced_layers")
            entry.update({key: passed[key] for key in kept})
            for key in ("attempted", "failed", "problems"):
                entry[key] += passed[key]
        if args.trace in (1, BOTH):
            passed = per_layer_pass(workload, args.seed, seconds, per_layer_names)
            metrics.update(report(workload, "per layer", passed["per_layer"], spec["per_layer"]))
            kept = ("per_layer", "spans", "cpu_accounted_share", "trace_file", "traced_ops")
            entry.update({key: passed[key] for key in kept})
            print(f"  self CPU times + CPU outside every span = {passed['cpu_accounted_share']:.4f}"
                  " of the traced window's process CPU time")
            for key in ("attempted", "failed", "problems"):
                entry[key] += passed[key]
        entry["correct"] = entry["failed"] == 0
        for problem in entry["problems"]:
            print(f"  FAILED: {problem}")
        print(f"  attempted {entry['attempted']}, failed {entry['failed']}"
              f" (failed share {entry['failed'] / entry['attempted']:.6f})")
        result["workloads"][workload] = entry
        last_line = {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    correct = all(entry["correct"] for entry in result["workloads"].values())
    if len(chosen) > 1:
        last_line = {
            "correct": correct,
            "attempted": sum(entry["attempted"] for entry in result["workloads"].values()),
            "failed": sum(entry["failed"] for entry in result["workloads"].values()),
            "out": str(args.out),
        }
    print(json.dumps(last_line))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(3)
