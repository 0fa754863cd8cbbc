"""Compare results of run.py: parent commit against change.

    compare.py A.json B.json
    compare.py A1.json A2.json A3.json --change B1.json B2.json B3.json

Each side is one or more results of the same seed and length (run them
alternately); a side's value is the median over its runs.  One row per
workload and end-to-end metric: both values, how much worse the change is as a
share of the parent (negative = better), the bound, the spread between the
parent's own runs (distance between their quartiles over their median; ``-``
with one run) and a verdict:

* ``ok``         -- the change is not worse than the parent by more than the bound;
* ``worse``      -- it is;
* ``unresolved`` -- it is, but the parent's own runs spread wider than the
  bound, so these runs cannot tell: make more.

The bound is the one in BENCHMARK.json, except where the value is modelled, not
timed: on the simulated workloads ``ack_p50_ms``, ``ack_p99_ms`` and the
modelled throughput ``sim.ops_per_sim_s`` repeat exactly for one seed and get
``MODELLED_BOUND``.  One more row for each simulated workload: ``events,
completed, order hash`` must be the same in every result (``different``
otherwise: the protocol model changed, which a pure speed change must not do).

Smoke results and results of different seeds or lengths are refused (exit 2).
The exit code is 1 unless every row is ``ok``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
#: Bound on the modelled (simulated-time) metrics of the simulated workloads.
MODELLED_BOUND = 0.01
MODELLED = ("ack_p50_ms", "ack_p99_ms")
MODELLED_THROUGHPUT = {"name": "sim.ops_per_sim_s", "unit": "1/s", "better": "higher"}


def spread(values: List[float]) -> Optional[float]:
    """Distance between the quartiles of ``values`` as a share of their median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def row(workload: str, metric: Dict, bound: float, ours: List[float], theirs: List[float]) -> Dict:
    before, after = statistics.median(ours), statistics.median(theirs)
    if before:
        change = (after - before) / before
    else:  # nothing to take a share of
        change = math.inf if after else 0.0
    worse_by = change if metric["better"] == "lower" else -change
    noise = spread(ours)
    if worse_by <= bound:
        verdict = "ok"
    elif noise is not None and noise > bound:
        verdict = "unresolved"
    else:
        verdict = "worse"
    return dict(workload=workload, metric=metric["name"], unit=metric["unit"], a=before, b=after,
                worse_by=worse_by, bound=bound, spread=noise, verdict=verdict)


def compare(parents: List[Dict], changes: List[Dict], declared: List[Dict]) -> List[Dict]:
    rows = []

    def entries(results: List[Dict], workload: str) -> List[Dict]:
        return [result["workloads"][workload] for result in results]

    for workload, first in parents[0]["workloads"].items():
        if "metrics" not in first:
            continue  # a per-layer-only result has no end-to-end row
        ours, theirs = entries(parents, workload), entries(changes, workload)
        simulated = "order_hash" in first["deterministic"]
        for metric in declared:
            name = metric["name"]
            bound = MODELLED_BOUND if simulated and name in MODELLED else metric["bound"]
            rows.append(row(workload, metric, bound, [entry["metrics"][name] for entry in ours],
                            [entry["metrics"][name] for entry in theirs]))
        if simulated:
            name = MODELLED_THROUGHPUT["name"]
            rows.append(row(workload, MODELLED_THROUGHPUT, MODELLED_BOUND,
                            [entry["untraced_layers"][name] for entry in ours],
                            [entry["untraced_layers"][name] for entry in theirs]))
            same = all(entry["deterministic"] == first["deterministic"] for entry in ours + theirs)
            rows.append(dict(workload=workload, metric="events, completed, order hash",
                             verdict="ok" if same else "different"))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("results", nargs="+", type=Path, help="the parent's results (or: parent change)")
    parser.add_argument("--change", nargs="+", type=Path, help="the change's results")
    args = parser.parse_args(argv)
    if args.change is None:
        if len(args.results) != 2:
            parser.error("give two results, or the change's after --change")
        args.results, args.change = args.results[:1], args.results[1:]
    parents, changes = ([json.loads(path.read_text()) for path in side]
                        for side in (args.results, args.change))
    if any(result["smoke"] for result in parents + changes):
        print("error: smoke results are too short to compare", file=sys.stderr)
        return 2
    if len({(result["seed"], result["seconds"]) for result in parents + changes}) != 1:
        print("error: the results have different seeds or lengths", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        rows = compare(parents, changes, declared)
    except KeyError as error:
        print(f"error: the results do not cover the same runs: {error}", file=sys.stderr)
        return 2
    print(f"parent: median of {len(parents)} run(s); change: median of {len(changes)} run(s)")
    print(f"{'workload':<18} {'metric':<30} {'parent':>12} {'change':>12} {'unit':<4} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for entry in rows:
        line = f"{entry['workload']:<18} {entry['metric']:<30} "
        if "a" in entry:
            noise = "-" if entry["spread"] is None else format(entry["spread"], ".1%")
            line += (f"{entry['a']:>12.5g} {entry['b']:>12.5g} {entry['unit']:<4} "
                     f"{entry['worse_by']:>+9.1%} {entry['bound']:>6.0%} {noise:>7}")
        else:
            line += " " * 55
        print(f"{line}  {entry['verdict']}")
    failed = sorted({entry["verdict"] for entry in rows} - {"ok"})
    if failed:
        print(f"not ok: some rows are {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
