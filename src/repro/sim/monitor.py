"""Measurement infrastructure: latency statistics and throughput timelines.

Every figure in the paper reports one or more of

* throughput in operations/second or Mbps (Figures 3-8),
* average latency in milliseconds (Figures 3, 4, 5, 8),
* a latency CDF (Figures 3, 6, 7),
* a throughput/latency *timeline* during recovery (Figure 8),
* CPU utilization at the coordinator (Figure 3).

:class:`Monitor` collects the raw samples during a simulation and exposes the
aggregations the benchmark harness needs.  Samples are tagged with a free-form
series name (e.g. ``"ring-1"`` or ``"us-west-2"``) so a single run can report
per-ring or per-region results.

The statistics primitives (:class:`LatencyStats`, :class:`ThroughputTimeline`,
:func:`percentile`) live in :mod:`repro.obs.stats`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.obs.stats import LatencyStats, ThroughputTimeline, percentile

__all__ = ["Monitor"]

class Monitor:
    """Collects operation samples for one simulation run.

    Recording is the hot path (one call per completed operation, across the
    whole experiment); aggregation happens at query time.
    :meth:`record_operation` therefore only appends a raw
    ``(completion_time, latency, size_bytes)`` sample, and the per-interval
    throughput timelines are materialized lazily -- incrementally folding in
    the samples recorded since the previous query -- instead of being updated
    per event.
    """

    def __init__(self, timeline_window: float = 1.0) -> None:
        self._samples: Dict[str, List[Tuple[float, float, int]]] = defaultdict(list)
        self._timelines: Dict[str, ThroughputTimeline] = {}
        #: Per-series count of samples already folded into the timeline.
        self._timeline_counts: Dict[str, int] = {}
        self._timeline_window = timeline_window
        self._counters: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_operation(
        self,
        series: str,
        completion_time: float,
        latency: float,
        size_bytes: int = 0,
    ) -> None:
        """Record a completed operation on ``series``."""
        self._samples[series].append((completion_time, latency, size_bytes))

    def increment(self, counter: str, amount: int = 1) -> None:
        """Increment a named counter (e.g. aborts, retransmissions, skips)."""
        self._counters[counter] += amount

    def timeline(self, series: str) -> ThroughputTimeline:
        """The (lazily materialized) throughput timeline for ``series``."""
        timeline = self._timelines.get(series)
        if timeline is None:
            timeline = ThroughputTimeline(self._timeline_window)
            self._timelines[series] = timeline
            self._timeline_counts[series] = 0
        samples = self._samples.get(series)
        if samples is not None:
            folded = self._timeline_counts[series]
            if folded < len(samples):
                record = timeline.record
                for completion_time, _, size_bytes in samples[folded:]:
                    record(completion_time, size_bytes)
                self._timeline_counts[series] = len(samples)
        return timeline

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def series_names(self) -> List[str]:
        return sorted(set(self._samples) | set(self._timelines))

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def latencies(self, series: Optional[str] = None) -> List[float]:
        """Raw latency samples for one series, or for all series combined."""
        if series is not None:
            return [latency for _, latency, _ in self._samples.get(series, [])]
        merged: List[float] = []
        for samples in self._samples.values():
            merged.extend(latency for _, latency, _ in samples)
        return merged

    def latency_stats(self, series: Optional[str] = None) -> LatencyStats:
        return LatencyStats.from_samples(self.latencies(series))

    def latency_cdf(self, series: Optional[str] = None, points: int = 100) -> List[Tuple[float, float]]:
        """Return ``(latency_seconds, cumulative_fraction)`` pairs."""
        samples = sorted(self.latencies(series))
        if not samples:
            return []
        cdf = []
        for index in range(points + 1):
            fraction = index / points
            cdf.append((percentile(samples, fraction), fraction))
        return cdf

    def throughput_ops(
        self,
        series: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> float:
        """Average operations/second over ``[start, end)`` of the run.

        When ``start``/``end`` are omitted the full recorded span is used.
        """
        names = [series] if series is not None else self.series_names()
        total_ops = 0
        span_start = math.inf
        span_end = -math.inf
        for name in names:
            timeline = self._materialized(name)
            if timeline is None:
                continue
            for bucket_start, ops, _ in timeline.buckets():
                bucket_end = bucket_start + timeline.window
                if start is not None and bucket_end <= start:
                    continue
                if end is not None and bucket_start >= end:
                    continue
                total_ops += ops
                span_start = min(span_start, bucket_start)
                span_end = max(span_end, bucket_end)
        if span_start is math.inf or span_end <= span_start:
            return 0.0
        window_start = start if start is not None else span_start
        window_end = end if end is not None else span_end
        duration = window_end - window_start
        if duration <= 0:
            return 0.0
        return total_ops / duration

    def throughput_mbps(
        self,
        series: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> float:
        """Average goodput in megabits/second over ``[start, end)``."""
        names = [series] if series is not None else self.series_names()
        total_bytes = 0
        span_start = math.inf
        span_end = -math.inf
        for name in names:
            timeline = self._materialized(name)
            if timeline is None:
                continue
            for bucket_start, _, nbytes in timeline.buckets():
                bucket_end = bucket_start + timeline.window
                if start is not None and bucket_end <= start:
                    continue
                if end is not None and bucket_start >= end:
                    continue
                total_bytes += nbytes
                span_start = min(span_start, bucket_start)
                span_end = max(span_end, bucket_end)
        if span_start is math.inf or span_end <= span_start:
            return 0.0
        window_start = start if start is not None else span_start
        window_end = end if end is not None else span_end
        duration = window_end - window_start
        if duration <= 0:
            return 0.0
        return total_bytes * 8 / 1e6 / duration

    def _materialized(self, series: str) -> Optional[ThroughputTimeline]:
        """The series' timeline, or ``None`` for a series never recorded."""
        if series not in self._samples and series not in self._timelines:
            return None
        return self.timeline(series)

    def throughput_series(self, series: str) -> List[Tuple[float, float]]:
        """``(time, ops_per_second)`` timeline for one series (Figure 8)."""
        return self.timeline(series).ops_series()
