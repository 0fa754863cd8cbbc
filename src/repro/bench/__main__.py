"""Command-line entry point for the benchmark harness.

Examples::

    python -m repro.bench figure3                 # reduced scale (quick)
    python -m repro.bench figure7 --scale paper   # paper-scale parameters
    python -m repro.bench reconfig --scale smoke  # live scale-out, tiny run
    python -m repro.bench all                     # every experiment, quick

Installed as the ``repro-bench`` console script by ``setup.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.harness import EXPERIMENTS, SCALES, run_experiment

__all__ = ["main"]

#: Hotspots printed by ``--cprofile``.
PROFILE_TOP_N = 25


def _run_profiled(name: str, scale: str):
    """Run one experiment under cProfile, printing the top cumulative hotspots.

    This is the profiling entry point the performance guide in
    CONTRIBUTING.md points at: when an experiment slows down, rerun it with
    ``--cprofile`` and compare the table against a good commit.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_experiment(name, scale=scale)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        print(f"--- cProfile: top {PROFILE_TOP_N} by cumulative time ({name}, {scale}) ---")
        stats.print_stats(PROFILE_TOP_N)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's evaluation figures on the simulator.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--scale",
        choices=list(SCALES),
        default="quick",
        help=(
            "smoke = CI-sized run (seconds); quick = reduced parameters; "
            "paper = the paper's parameters (minutes)"
        ),
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also dump the raw result dictionaries to this JSON file",
    )
    parser.add_argument(
        "--skip",
        action="append",
        choices=sorted(EXPERIMENTS),
        default=None,
        metavar="EXPERIMENT",
        help="with 'all': leave this experiment out (repeatable)",
    )
    parser.add_argument(
        "--cprofile",
        action="store_true",
        help=(
            f"run under cProfile and dump the top {PROFILE_TOP_N} cumulative "
            "hotspots per experiment (see CONTRIBUTING.md, 'Profiling')"
        ),
    )
    # Convenience aliases so CI recipes read naturally
    # (``python -m repro.bench chaos --quick``).
    alias_group = parser.add_mutually_exclusive_group()
    for alias in SCALES:
        alias_group.add_argument(
            f"--{alias}",
            action="store_const",
            const=alias,
            dest="scale_alias",
            help=f"alias for --scale {alias}",
        )
    args = parser.parse_args(argv)
    scale = args.scale_alias or args.scale

    if args.skip and args.experiment != "all":
        parser.error("--skip only applies to 'all'")
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.skip:
        names = [name for name in names if name not in set(args.skip)]
        if not names:
            parser.error("--skip left nothing to run")
    results = {}
    failed = False
    for name in names:
        if args.cprofile:
            result = _run_profiled(name, scale)
        else:
            result = run_experiment(name, scale=scale)
        results[name] = result
        print(result["report"])
        print()
        # Experiments with a pass/fail verdict (the chaos campaign's
        # invariant checks) gate the exit code so CI lanes can fail on them.
        if result.get("passed") is False:
            failed = True
    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
