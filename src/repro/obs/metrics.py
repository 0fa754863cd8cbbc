"""A small, backend-agnostic metrics registry.

Design constraints, in order:

1. **Zero hot-path cost.**  The protocol hot paths (PR 4) already maintain
   plain integer counters on the node/role/merge objects -- the registry does
   not shadow them with instrument objects.  Instead, instrumented components
   register *collectors*: callables invoked only at :meth:`MetricsRegistry.
   snapshot` time that read those plain attributes and return samples.  A run
   that never snapshots pays nothing; a run that snapshots once pays once.
2. **Direct instruments only off the hot path.**  :class:`Counter`,
   :class:`Gauge` and :class:`Histogram` exist for cold paths (batch flushes,
   fsyncs, fault events) where an attribute-increment-per-event is fine.
3. **Deterministic export.**  Snapshots sort sample names so Prometheus text
   output and the JSON embedded in ``BENCH_*.json`` are stable across runs.

Sample names follow Prometheus conventions (``mrp_decisions_learned_total``)
with labels rendered as ``name{node="n0",group="g1"}``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: A single exported sample: (name, labels, value).
MetricSample = Tuple[str, Tuple[Tuple[str, str], ...], float]

#: Fixed bucket bounds (seconds) for latency histograms: 100us .. 10s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fixed bucket bounds for size/count histograms (values, bytes, batch sizes).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)


def _labels(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count (cold-path instrument)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def samples(self) -> List[MetricSample]:
        return [(self.name, (), self.value)]


class Gauge:
    """A value that can go up and down (queue depth, cursor lag, ...)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def samples(self) -> List[MetricSample]:
        return [(self.name, (), self.value)]


class Histogram:
    """A fixed-bucket histogram (cumulative counts, Prometheus-style).

    Buckets are chosen at construction; observations binary-search the
    upper-bound list.  The export carries cumulative ``_bucket`` samples with
    ``le`` labels plus ``_sum`` and ``_count``.
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(buckets)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def samples(self) -> List[MetricSample]:
        out: List[MetricSample] = []
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            out.append((f"{self.name}_bucket", (("le", _format_bound(bound)),), float(cumulative)))
        out.append((f"{self.name}_bucket", (("le", "+Inf"),), float(self.count)))
        out.append((f"{self.name}_sum", (), self.sum))
        out.append((f"{self.name}_count", (), float(self.count)))
        return out


def _format_bound(bound: float) -> str:
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """Per-node (or per-world) registry of instruments, collectors and events.

    ``labels`` (typically ``{"node": name}``) are attached to every exported
    sample.  Collectors are ``() -> iterable of (name, value)`` or
    ``() -> iterable of (name, labels_dict, value)`` callables, invoked only
    at snapshot time.
    """

    def __init__(self, labels: Optional[Mapping[str, str]] = None) -> None:
        self.labels: Dict[str, str] = dict(labels or {})
        self._instruments: Dict[str, object] = {}
        self._collectors: List[Callable[[], Iterable]] = []
        self._events: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._register(name, lambda: Histogram(name, help, buckets))

    def _register(self, name: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        return instrument

    def add_collector(self, collector: Callable[[], Iterable]) -> None:
        """Register a pull-collector read only at snapshot time."""
        self._collectors.append(collector)

    # ------------------------------------------------------------------
    # event log
    # ------------------------------------------------------------------
    def record_event(self, time: float, kind: str, detail: str = "") -> None:
        """Append a timestamped event (fault injections, reconfigurations...)."""
        self._events.append((time, kind, detail))

    def events(self) -> List[Dict[str, object]]:
        return [
            {"time": time, "kind": kind, "detail": detail}
            for time, kind, detail in self._events
        ]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def collect(self) -> List[MetricSample]:
        """All current samples (instruments + collectors), sorted by name."""
        samples: List[MetricSample] = []
        for name in sorted(self._instruments):
            samples.extend(self._instruments[name].samples())  # type: ignore[attr-defined]
        for collector in self._collectors:
            for item in collector():
                if len(item) == 2:
                    name, value = item
                    samples.append((name, (), float(value)))
                else:
                    name, labels, value = item
                    samples.append((name, _labels(labels), float(value)))
        base = tuple(sorted(self.labels.items()))
        if base:
            samples = [(name, base + labels, value) for name, labels, value in samples]
        samples.sort(key=lambda s: (s[0], s[1]))
        return samples

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe snapshot: flat metric map plus the event log."""
        metrics: Dict[str, float] = {}
        for name, labels, value in self.collect():
            extra = [(k, v) for k, v in labels if k not in self.labels]
            if extra:
                rendered = ",".join(f'{k}="{v}"' for k, v in extra)
                key = f"{name}{{{rendered}}}"
            else:
                key = name
            metrics[key] = value
        return {"labels": dict(self.labels), "metrics": metrics, "events": self.events()}

    def render_prometheus(self) -> str:
        """Render all samples in the Prometheus text exposition format."""
        lines: List[str] = []
        seen_help: set = set()
        for name, labels, value in self.collect():
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if family.endswith(suffix):
                    candidate = family[: -len(suffix)]
                    if candidate in self._instruments and isinstance(
                        self._instruments[candidate], Histogram
                    ):
                        family = candidate
                        break
            instrument = self._instruments.get(family)
            if instrument is not None and family not in seen_help:
                seen_help.add(family)
                help_text = getattr(instrument, "help", "")
                if help_text:
                    lines.append(f"# HELP {family} {help_text}")
                kind = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}[
                    type(instrument)
                ]
                lines.append(f"# TYPE {family} {kind}")
            if labels:
                rendered = ",".join(f'{k}="{v}"' for k, v in labels)
                lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def merge_snapshots(snapshots: Mapping[str, Dict[str, object]]) -> Dict[str, object]:
    """Combine per-node snapshots into one BENCH_*.json ``observability`` section."""
    return {"nodes": dict(snapshots)}
