"""One workload in one fresh process; run.py starts this file, nothing imports it.

Each workload gets its own interpreter because heap and GC state leak between
runs: a live run started after other runs in the same interpreter showed
4-5x the p99 of a fresh one.  The child is told the workload, the seed, the
measured length and a mode, and prints one JSON object on its last line:

* ``setup``   -- build the deployment up to its first operation, report how
  long that took since the parent spawned this process, exit;
* ``measure`` -- set up, warm up, run the measured window untraced, drain,
  run the correctness oracle;
* ``traced``  -- the same with ``tracing.install`` wrapped around every layer.

GC stays enabled in every mode: users pay for it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional

from metrics import cpu_accounted_share, end_to_end, traced_layers, untraced_layers


class Probe:
    """Process CPU time, GC pauses and peak-RSS growth over the measured window."""

    def __init__(self) -> None:
        self.gc_pause_s = 0.0
        self.gen2_runs = 0
        self._gc_started = 0.0

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            if info["generation"] == 2:
                self.gen2_runs += 1

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)
        self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.cpu_s = time.process_time()
        self.wall_s = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self.wall_s
        self.cpu_s = time.process_time() - self.cpu_s
        self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - self.rss_kb
        gc.callbacks.remove(self._on_gc)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    # One CPU for the whole child.  The GIL lets one thread run at a time
    # anyway, and left to float over two CPUs the generator and loop threads
    # made live throughput bimodal: 3.1k appends/s when the scheduler kept
    # them apart, 4.4k when together, changing from run to run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from workloads import WORKLOADS, ring_counters

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    probe = Probe()
    counters: Dict[str, int] = {}

    def begin() -> None:
        for key, value in ring_counters(workload.nodes()).items():
            counters[key] = -value
        if tracer is not None:
            tracer.begin_window()
        probe.start()

    def end() -> None:
        if not counters:  # the load stalled before the window opened
            begin()
        probe.stop()
        if tracer is not None:
            tracer.end_window()
        for key, value in ring_counters(workload.nodes()).items():
            counters[key] = counters.get(key, 0) + value

    result: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": args.mode,
    }
    try:
        workload.start()
        result["setup_s"] = time.time() - args.spawned_at
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        slices = workload.run(args.seconds, begin, end)
        attempted, failed, problems, deterministic = workload.verify()
    finally:
        workload.close()
        if tracer is not None:
            tracer.restore()
    result.update(end_to_end(slices, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
    result.update(
        attempted=attempted,
        failed=failed,
        problems=problems,
        deterministic=deterministic,
        counters=counters,
    )
    if tracer is None:
        result["layers"] = untraced_layers(probe, result["acked"], workload.extra)
    else:
        result["layers"] = traced_layers(tracer, counters, probe, result["acked"])
        result["spans"] = tracer.window_stats
        result["cpu_accounted_share"] = cpu_accounted_share(tracer.window_stats, probe)
        result["trace_file"] = os.path.join(args.out_dir, f"trace-{args.workload}.jsonl")
        result["trace_spans"] = tracer.dump(result["trace_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
