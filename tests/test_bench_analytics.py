"""The bench analytics layer: latency summaries and SLO verdicts."""

from __future__ import annotations

import pytest

from repro.bench.analytics import SLOTarget, evaluate_slo, latency_summary, make_analytics


def test_latency_summary_percentiles():
    samples = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
    summary = latency_summary(samples)
    assert summary["count"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5, rel=0.02)
    assert summary["p99_ms"] == pytest.approx(99.0, rel=0.02)
    assert summary["max_ms"] == pytest.approx(100.0)
    assert latency_summary([]) == {"count": 0}


def test_slo_target_evaluate():
    target = SLOTarget("openloop", p99_ms=250.0, p50_ms=80.0)
    verdict = evaluate_slo({"p50_ms": 70.0, "p99_ms": 300.0}, target)
    assert not verdict["ok"]
    by_pct = {check["percentile"]: check for check in verdict["checks"]}
    assert by_pct["p50_ms"]["ok"] and not by_pct["p99_ms"]["ok"]

    # A percentile the summary cannot provide fails its check.
    assert not evaluate_slo({}, SLOTarget("x", p99_ms=1.0))["ok"]


def test_make_analytics_embeds_series_and_verdicts():
    section = make_analytics(
        {"a": [0.001, 0.002], "b": [0.5]},
        slos=[SLOTarget("a", p99_ms=100.0), SLOTarget("b", p50_ms=1.0)],
    )
    assert section["schema"] == 1
    assert set(section["series"]) == {"a", "b"}
    assert section["slo"][0]["ok"] is True
    assert section["slo"][1]["ok"] is False  # 500ms > 1ms
    assert section["slo_ok"] is False
