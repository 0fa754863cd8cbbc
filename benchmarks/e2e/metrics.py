"""From raw samples to the declared metrics: slices, quantiles, per-layer sums.

Imports nothing from ``repro``: the yardstick must not move with the code it
measures (``repro.obs.stats.percentile`` computes the same quantile today).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from tracing import OUTSIDE

#: A slice of the measured window: its wall-clock length in seconds and the
#: latencies (seconds, in the workload's own clock) of the operations it acked.
Slice = Tuple[float, List[float]]


def quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already sorted, non-empty sequence."""
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def quiet_p99(slices: Sequence[Slice]) -> float:
    """The lower quartile, over the non-empty slices, of each slice's p99; 0.0 if all are empty."""
    tails = sorted(quantile(sorted(values), 0.99) for _, values in slices if values)
    return quantile(tails, 0.25) if tails else 0.0


def end_to_end(slices: Sequence[Slice], peak_rss_kb: int) -> Dict[str, object]:
    """The run's end-to-end metrics; all-zero latencies if nothing was acknowledged."""
    everything = sorted(latency for _, latencies in slices for latency in latencies)
    wall = sum(width for width, _ in slices)
    return {
        "acked": len(everything),
        "window_wall_s": wall,
        "metrics": {
            "ops_per_s": len(everything) / wall,
            "ack_p50_ms": quantile(everything, 0.50) * 1e3 if everything else 0.0,
            "ack_p99_ms": quiet_p99(slices) * 1e3,
            "peak_rss_mb": peak_rss_kb / 1024.0,
        },
    }


def untraced_layers(probe, acked: int, extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics that only mean something with tracing off."""
    ops = max(acked, 1)
    layers = {
        "proc.cpu_per_wall": probe.cpu_s / probe.wall_s,
        "proc.cpu_us_per_op": probe.cpu_s * 1e6 / ops,
        "proc.gc_pause_ms_total": probe.gc_pause_s * 1e3,
        "proc.gc_gen2_runs": probe.gen2_runs,
        "proc.rss_kb_per_kop": probe.rss_kb * 1000.0 / ops,
        "workloads.gen_late_p99_ms": extra.get("gen_late_p99_ms", 0.0),
    }
    if "sim_window_s" in extra:
        layers["sim.ops_per_sim_s"] = acked / extra["sim_window_s"]
    if "sample_us" in extra:  # arrivals are sampled before the window opens
        layers["workloads.sample_us"] = extra["sample_us"]
    return layers


def cpu_accounted_share(stats: Dict[str, Sequence[int]], probe) -> float:
    """Self CPU times plus the CPU time measured outside every span, over the
    window's ``time.process_time``: 1.0 when no CPU time is lost or counted twice."""
    return sum(stat[2] for stat in stats.values()) / (probe.cpu_s * 1e9)


def traced_layers(tracer, counters: Dict[str, int], probe, acked: int) -> Dict[str, float]:
    """Per-layer metrics from the span sums and the stack's own counters.

    Every ``*_us_per_*`` here is self time, which the tracer takes from the
    thread's CPU clock; ``api.submit_us`` and the p50/p99 samples are wall time.
    """
    stats = tracer.window_stats
    ops = max(acked, 1)

    def count(name: str) -> int:
        return stats.get(name, (0, 0, 0))[0]

    def total_us(name: str) -> float:
        return stats.get(name, (0, 0, 0))[1] / 1e3

    def self_us(*prefixes: str) -> float:  # every span name is "<layer>:<call>"
        return sum(stat[2] for name, stat in stats.items() if name.startswith(prefixes)) / 1e3

    def per(amount: float, base: float) -> float:
        return amount / base if base else 0.0

    def sample_us(q: float, *names: str) -> float:
        ordered = sorted(ns for name in names for ns in tracer.window_samples.get(name, ()))
        return quantile(ordered, q) / 1e3 if ordered else 0.0

    store_writes = ("runtime.live:store_write", "runtime.live:store_write_async")
    events = counters.get("clock_events", 0)
    simulated = count("sim:run") > 0
    layers = {
        "api.submit_us": per(total_us("api:submit"), count("api:submit")),
        "api.handoff_us_p50": sample_us(0.50, "api:handoff"),
        "api.handoff_us_p99": sample_us(0.99, "api:handoff"),
        "workloads.sample_us": per(
            total_us("workloads:next_request"), count("workloads:next_request")
        ),
        "runtime.codec.encode_us_per_op": self_us("runtime.codec:frame_message") / ops,
        "runtime.codec.decode_us_per_op": self_us("runtime.codec:iter_frames") / ops,
        "runtime.codec.frames_per_op": count("runtime.codec:frame_message") / ops,
        "runtime.codec.bytes_per_op": counters.get("wire_bytes_sent", 0) / ops,
        "runtime.live.send_us_per_op": self_us("runtime.live:send") / ops,
        "runtime.live.clock_events_per_op": 0.0 if simulated else events / ops,
        "runtime.live.fsyncs_per_op": count("runtime.live:store_write") / ops,
        "runtime.live.store_write_us_p50": sample_us(0.50, *store_writes),
        "runtime.live.store_write_us_p99": sample_us(0.99, *store_writes),
        "runtime.live.store_bytes_per_op": 0.0 if simulated else counters.get("store_bytes", 0) / ops,
        "ringpaxos.handler_us_per_op": self_us("ringpaxos:") / ops,
        "ringpaxos.messages_per_op": counters.get("messages_sent", 0) / ops,
        "ringpaxos.instances_per_op": counters.get("instances", 0) / ops,
        # Without coordinator batching every instance that carries values carries one.
        "ringpaxos.values_per_batch": per(
            counters.get("batch_values", 0), counters.get("batches_flushed", 0)
        )
        or (1.0 if counters.get("values_proposed") else 0.0),
        "ringpaxos.skips_per_op": counters.get("skips_proposed", 0) / ops,
        "paxos.storage.log_vote_us_per_op": self_us("paxos.storage:") / ops,
        "paxos.storage.votes_per_op": (
            count("paxos.storage:log_vote") + count("paxos.storage:log_votes_range")
        )
        / ops,
        "multiring.merge_us_per_delivery": per(
            self_us("multiring:"), counters.get("deliveries", 0)
        ),
        "multiring.merge_skipped_per_op": counters.get("merge_skipped", 0) / ops,
        "multiring.deliveries_per_op": counters.get("deliveries", 0) / ops,
        "smr.frontend_us_per_op": self_us("smr:") / ops,
        "services.execute_us_per_op": self_us("services:") / ops,
        "sim.events_per_op": events / ops if simulated else 0.0,
        "sim.events_per_wall_s": events / probe.wall_s if simulated else 0.0,
        "sim.network_send_us_per_msg": per(
            self_us("sim:network_send"), count("sim:network_send")
        ),
        "sim.network_msgs_per_op": count("sim:network_send") / ops,
        "sim.queue_us_per_event": per(self_us("sim:run"), events) if simulated else 0.0,
        # Measured between the outermost spans of each thread, not a remainder.
        "trace.unattributed_share": stats[OUTSIDE][2] / (probe.cpu_s * 1e9),
    }
    return layers
