"""Command-line launcher for live mode.

Examples::

    python -m repro.live --smoke                  # client + 3 acceptors + 3 replicas, 300 appends
    python -m repro.live --nodes 5 --values 2000  # bigger in-process ring
    python -m repro.live --storage sync-ssd --storage-dir /tmp/repro-live

Writes the result (wall-clock throughput, wire traffic, the safety oracle's
verdicts) to ``BENCH_live.json`` and exits non-zero if the oracle
(:mod:`repro.verify`) finds a property broken or a replica with nothing to
judge.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.live import run_live

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-live",
        description="Run the protocol stack live over localhost TCP.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: --nodes 3 --values 300 (the defaults, made explicit)",
    )
    parser.add_argument("--nodes", type=int, default=3, help="acceptors, and replicas, of the ring (default 3)")
    parser.add_argument("--values", type=int, default=300, help="appends to submit")
    parser.add_argument("--value-size", type=int, default=1024, help="append payload bytes")
    parser.add_argument("--window", type=int, default=32, help="outstanding appends (closed loop)")
    parser.add_argument(
        "--storage",
        default="memory",
        choices=["memory", "async-hdd", "async-ssd", "sync-hdd", "sync-ssd"],
        help="acceptor log mode; durable modes append+fsync real files",
    )
    parser.add_argument(
        "--storage-dir",
        default=None,
        help="directory for acceptor logs and replica spill disks (required for non-memory modes)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-phase wall-clock timeout, seconds"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_live.json"),
        help="result file (default BENCH_live.json)",
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable sampled causal tracing",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=64,
        help="sample every Nth proposed value (default 64; 1 = every value)",
    )
    parser.add_argument(
        "--no-http",
        action="store_true",
        help="do not serve per-node /metrics + /healthz listeners",
    )
    parser.add_argument(
        "--trace-log",
        type=Path,
        default=Path("BENCH_live_trace.jsonl"),
        help="span JSONL for `python -m repro.obs.report` (default BENCH_live_trace.jsonl)",
    )
    args = parser.parse_args(argv)

    if args.storage != "memory" and args.storage_dir is None:
        parser.error("--storage-dir is required for durable storage modes")
    if args.smoke:
        args.nodes, args.values = 3, 300

    tracing = not args.no_tracing
    result = run_live(
        nodes=args.nodes,
        values=args.values,
        value_size=args.value_size,
        window=args.window,
        storage=args.storage,
        storage_dir=args.storage_dir,
        timeout=args.timeout,
        seed=args.seed,
        tracing=tracing,
        trace_sample=args.trace_sample,
        serve_http=not args.no_http,
        trace_log=str(args.trace_log) if tracing else None,
    )
    print(result["report"])
    args.json.write_text(json.dumps(result, indent=2, sort_keys=True, default=str) + "\n")
    print(f"wrote {args.json}")
    return 0 if result["passed"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
