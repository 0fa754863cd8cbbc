"""Latency percentiles and SLO verdicts for ``BENCH_*.json``.

* :func:`latency_summary` distills raw latency samples into the percentile
  vocabulary used across the repo (``p50_ms`` / ``p90_ms`` / ``p99_ms`` /
  ``p999_ms``);
* :class:`SLOTarget` + :func:`evaluate_slo` check those percentiles against
  declared service-level objectives and produce per-percentile verdicts;
* :func:`make_analytics` builds the versioned ``analytics`` section that
  the ``workload`` experiment embeds in ``BENCH_workload.json`` (see
  ``docs/benchmarks.md`` for the schema).

Comparing runs is ``benchmarks/e2e/compare.py``'s job, not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.stats import percentile

__all__ = [
    "ANALYTICS_SCHEMA",
    "SLOTarget",
    "latency_summary",
    "evaluate_slo",
    "make_analytics",
]

#: Version of the embedded ``analytics`` section; bump on shape changes.
ANALYTICS_SCHEMA = 1


def latency_summary(samples_seconds: Sequence[float]) -> Dict[str, float]:
    """Percentile summary (milliseconds) of raw latency samples (seconds)."""
    ordered = sorted(samples_seconds)
    if not ordered:
        return {"count": 0}
    scale = 1e3
    return {
        "count": len(ordered),
        "mean_ms": scale * sum(ordered) / len(ordered),
        "p50_ms": scale * percentile(ordered, 0.50),
        "p90_ms": scale * percentile(ordered, 0.90),
        "p99_ms": scale * percentile(ordered, 0.99),
        "p999_ms": scale * percentile(ordered, 0.999),
        "max_ms": scale * ordered[-1],
    }


@dataclass(frozen=True)
class SLOTarget:
    """Declared latency objectives for one series (None = not checked)."""

    series: str
    p50_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    p999_ms: Optional[float] = None


def evaluate_slo(summary: Dict[str, float], target: SLOTarget) -> Dict[str, Any]:
    """Per-percentile verdicts of ``summary`` against ``target``.

    A percentile missing from the summary (e.g. an empty run) fails its
    check -- an SLO that cannot be measured is not met.
    """
    checks: List[Dict[str, Any]] = []
    for key in ("p50_ms", "p99_ms", "p999_ms"):
        limit = getattr(target, key)
        if limit is None:
            continue
        actual = summary.get(key)
        ok = actual is not None and actual <= limit
        checks.append(
            {
                "percentile": key,
                "target_ms": limit,
                "actual_ms": actual,
                "ok": ok,
            }
        )
    return {"series": target.series, "checks": checks, "ok": all(c["ok"] for c in checks)}


def make_analytics(
    series_samples: Dict[str, Sequence[float]],
    slos: Sequence[SLOTarget] = (),
) -> Dict[str, Any]:
    """The versioned ``analytics`` section embedded in ``BENCH_workload.json``."""
    series = {name: latency_summary(samples) for name, samples in series_samples.items()}
    verdicts = []
    for target in slos:
        verdicts.append(evaluate_slo(series.get(target.series, {}), target))
    return {
        "schema": ANALYTICS_SCHEMA,
        "series": series,
        "slo": verdicts,
        "slo_ok": all(v["ok"] for v in verdicts),
    }
