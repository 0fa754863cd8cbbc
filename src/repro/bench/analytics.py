"""Latency-percentile, SLO and cross-run analytics over ``BENCH_*.json``.

Every bench run leaves a ``BENCH_<experiment>.json`` behind; before this
module they piled up with no way to compare them.  This is the analysis
layer:

* :func:`latency_summary` distills raw latency samples into the percentile
  vocabulary used across the repo (``p50_ms`` / ``p90_ms`` / ``p99_ms`` /
  ``p999_ms``);
* :class:`SLOTarget` + :func:`evaluate_slo` check those percentiles against
  declared service-level objectives and produce per-percentile verdicts;
* :func:`make_analytics` builds the versioned ``analytics`` section that
  new-schema bench files embed (the ``workload`` experiment writes one, see
  ``docs/benchmarks.md`` for the schema);
* :func:`extract_series` reads percentile tables out of *any* bench file --
  the ``analytics`` section when present, otherwise a deep scan for
  ``p50_ms``/``p99_ms`` blocks (so pre-analytics files from older runs still
  compare);
* :func:`compare_runs` lines several runs up side by side, and the CLI
  renders the comparison:

  .. code-block:: sh

      python -m repro.bench.analytics BENCH_workload.json previous/BENCH_workload.json
      python -m repro.bench.analytics --glob 'BENCH_*.json' --history
      python -m repro.bench.analytics BENCH_workload.json --slo 'openloop:p99<=250'

The benchmark-regression gate (:mod:`repro.bench.regression`) uses
:func:`analytics_of` to read these sections tolerantly: a file written by an
older schema produces a warning, never a ``KeyError``.
"""

from __future__ import annotations

import argparse
import glob as _glob
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.report import format_table
from repro.obs.stats import percentile

__all__ = [
    "ANALYTICS_SCHEMA",
    "SLOTarget",
    "latency_summary",
    "evaluate_slo",
    "make_analytics",
    "analytics_of",
    "extract_series",
    "compare_runs",
    "main",
]

#: Version of the embedded ``analytics`` section; bump on shape changes.
ANALYTICS_SCHEMA = 1

#: The percentile columns every summary carries, in report order.
PERCENTILE_KEYS = ("p50_ms", "p90_ms", "p99_ms", "p999_ms")


# ----------------------------------------------------------------------
# summaries and SLOs
# ----------------------------------------------------------------------
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

    _SPEC = re.compile(r"^(p50|p99|p999)\s*<=\s*([0-9.]+)$")

    @classmethod
    def parse(cls, spec: str) -> "SLOTarget":
        """Parse ``"series:p99<=250,p50<=80"`` (milliseconds)."""
        series, _, rest = spec.partition(":")
        if not series or not rest:
            raise ValueError(f"bad SLO spec {spec!r}; expected 'series:p99<=250,...'")
        kwargs: Dict[str, float] = {}
        for clause in rest.split(","):
            match = cls._SPEC.match(clause.strip())
            if not match:
                raise ValueError(
                    f"bad SLO clause {clause.strip()!r} in {spec!r}; "
                    "expected e.g. 'p99<=250'"
                )
            kwargs[f"{match.group(1)}_ms"] = float(match.group(2))
        return cls(series=series, **kwargs)

    def as_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"series": self.series}
        for key in ("p50_ms", "p99_ms", "p999_ms"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        return record


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
    """The versioned ``analytics`` section embedded in new-schema bench files."""
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


# ----------------------------------------------------------------------
# tolerant readers
# ----------------------------------------------------------------------
def analytics_of(data: Any, source: str = "bench file") -> Tuple[Optional[Dict], List[str]]:
    """The ``analytics`` section of a bench result, tolerantly.

    Returns ``(section, warnings)``.  A file written before the analytics
    schema (or with a malformed section) yields ``(None, [warning, ...])``
    -- callers print the warning instead of crashing, which is what lets
    the regression gate compare against pre-analytics baselines.
    """
    warnings: List[str] = []
    if not isinstance(data, dict):
        return None, [f"{source}: not a JSON object; no analytics to read"]
    section = data.get("analytics")
    if section is None:
        return None, [
            f"{source}: no 'analytics' section (older schema); "
            "percentile/SLO fields unavailable"
        ]
    if not isinstance(section, dict) or not isinstance(section.get("series"), dict):
        return None, [f"{source}: malformed 'analytics' section; ignored"]
    schema = section.get("schema")
    if schema != ANALYTICS_SCHEMA:
        warnings.append(
            f"{source}: analytics schema {schema!r} (this build reads "
            f"{ANALYTICS_SCHEMA}); reading best-effort"
        )
    return section, warnings


def _scan_percentile_blocks(node: Any, path: str, found: Dict[str, Dict[str, float]]) -> None:
    if isinstance(node, dict):
        if isinstance(node.get("p50_ms"), (int, float)) and isinstance(
            node.get("p99_ms"), (int, float)
        ):
            found[path or "latency"] = {
                key: float(value)
                for key, value in node.items()
                if isinstance(value, (int, float)) and (key.endswith("_ms") or key == "count")
            }
            return
        for key, value in node.items():
            if key.startswith("_"):
                continue
            _scan_percentile_blocks(value, f"{path}/{key}" if path else str(key), found)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _scan_percentile_blocks(value, f"{path}[{index}]", found)


def extract_series(data: Any, source: str = "bench file") -> Tuple[Dict[str, Dict[str, float]], List[str]]:
    """Every latency-percentile table in a bench file, by series name.

    New-schema files contribute their ``analytics.series`` map; for older
    files the whole document is scanned for ``p50_ms``/``p99_ms`` blocks so
    cross-run comparison works across schema generations.
    """
    section, warnings = analytics_of(data, source)
    if section is not None:
        return dict(section["series"]), warnings
    found: Dict[str, Dict[str, float]] = {}
    _scan_percentile_blocks(data, "", found)
    if not found:
        warnings.append(f"{source}: no latency percentile tables found")
    return found, warnings


# ----------------------------------------------------------------------
# cross-run comparison
# ----------------------------------------------------------------------
def compare_runs(
    labeled: Sequence[Tuple[str, Any]],
    *,
    series_filter: Optional[str] = None,
    percentiles: Sequence[str] = ("p50_ms", "p99_ms"),
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Line up percentile tables across runs.

    Returns ``(rows, warnings)``; each row is ``{"series", "percentile",
    "values": {label: value}, "delta_pct"}`` where ``delta_pct`` is the
    last run relative to the first (positive = slower).
    """
    warnings: List[str] = []
    per_run: List[Tuple[str, Dict[str, Dict[str, float]]]] = []
    for label, data in labeled:
        series, notes = extract_series(data, source=label)
        warnings.extend(notes)
        per_run.append((label, series))
    names: List[str] = []
    for _, series in per_run:
        for name in series:
            if name not in names:
                names.append(name)
    if series_filter is not None:
        names = [n for n in names if series_filter in n]
    rows: List[Dict[str, Any]] = []
    for name in names:
        for key in percentiles:
            values: Dict[str, Optional[float]] = {}
            for label, series in per_run:
                block = series.get(name)
                values[label] = block.get(key) if block else None
            present = [v for v in values.values() if v is not None]
            if not present:
                continue
            # The delta needs two runs to compare; a series seen in only one
            # run gets no delta instead of a misleading +0.0%.
            delta = None
            if len(present) >= 2 and present[0] > 0:
                delta = 100.0 * (present[-1] - present[0]) / present[0]
            rows.append(
                {"series": name, "percentile": key, "values": values, "delta_pct": delta}
            )
    return rows, warnings


def _format_comparison(rows: List[Dict[str, Any]], labels: Sequence[str]) -> str:
    headers = ["series", "pct"] + [str(label) for label in labels] + ["Δ last vs first"]
    table_rows = []
    for row in rows:
        cells = [row["series"], row["percentile"].replace("_ms", "")]
        for label in labels:
            value = row["values"].get(label)
            cells.append("-" if value is None else f"{value:.2f}ms")
        delta = row["delta_pct"]
        cells.append("-" if delta is None else f"{delta:+.1f}%")
        table_rows.append(cells)
    return format_table("Cross-run latency percentiles", headers, table_rows)


def _format_slo(section: Dict[str, Any], label: str) -> List[str]:
    lines = []
    for verdict in section.get("slo", []):
        for check in verdict.get("checks", []):
            actual = check.get("actual_ms")
            actual_text = "-" if actual is None else f"{actual:.2f}ms"
            status = "PASS" if check.get("ok") else "FAIL"
            lines.append(
                f"  [{status}] {label} {verdict.get('series')}: "
                f"{check.get('percentile')} {actual_text} "
                f"(target <= {check.get('target_ms'):.2f}ms)"
            )
    return lines


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _load(path: Path) -> Tuple[str, Any]:
    try:
        return path.name, json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: cannot read {path}: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-analytics",
        description=(
            "Latency-percentile, SLO and cross-run analysis over BENCH_*.json "
            "files (see docs/benchmarks.md for the file schema)."
        ),
    )
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="bench JSON files to analyze (default: BENCH_*.json in the cwd)",
    )
    parser.add_argument(
        "--glob", default=None,
        help="glob pattern for bench files (used when no files are listed)",
    )
    parser.add_argument(
        "--series", default=None,
        help="only show series whose name contains this substring",
    )
    parser.add_argument(
        "--percentiles", default="p50,p99",
        help="comma-separated percentile columns (of p50,p90,p99,p999)",
    )
    parser.add_argument(
        "--slo", action="append", default=[], metavar="SPEC",
        help="check an SLO, e.g. 'openloop:p99<=250,p50<=80' (ms; repeatable)",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="order runs by their recorded_at field (file mtime fallback) "
             "and render the comparison as a regression history",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="also write the structured comparison rows to this JSON file",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any SLO check fails (embedded or --slo)",
    )
    args = parser.parse_args(argv)

    paths = list(args.files)
    if not paths:
        pattern = args.glob or "BENCH_*.json"
        paths = [Path(p) for p in sorted(_glob.glob(pattern))]
    if not paths:
        print("no bench files found (pass paths or --glob)", file=sys.stderr)
        return 2
    for path in paths:
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2

    if args.history:
        def _stamp(path: Path) -> float:
            try:
                data = json.loads(path.read_text())
                recorded = data.get("recorded_at")
                if isinstance(recorded, (int, float)):
                    return float(recorded)
            except (OSError, json.JSONDecodeError):
                pass
            return path.stat().st_mtime

        paths = sorted(paths, key=_stamp)

    labeled = [_load(path) for path in paths]
    keys = []
    for token in args.percentiles.split(","):
        token = token.strip().rstrip("ms").rstrip("_")
        key = f"{token}_ms"
        if key not in PERCENTILE_KEYS:
            parser.error(f"unknown percentile {token!r}; pick from p50,p90,p99,p999")
        keys.append(key)

    rows, warnings = compare_runs(labeled, series_filter=args.series, percentiles=keys)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    if not rows:
        print("no latency percentile data found in the given files", file=sys.stderr)
        return 2
    labels = [label for label, _ in labeled]
    print(_format_comparison(rows, labels))

    # SLO verdicts: embedded sections first, then any --slo overrides.
    failures = 0
    slo_lines: List[str] = []
    for label, data in labeled:
        section, _ = analytics_of(data, source=label)
        if section is not None and section.get("slo"):
            slo_lines.extend(_format_slo(section, label))
            if not section.get("slo_ok", True):
                failures += 1
    targets = [SLOTarget.parse(spec) for spec in args.slo]
    for target in targets:
        for label, data in labeled:
            series, _ = extract_series(data, source=label)
            matching = [name for name in series if target.series in name]
            for name in matching:
                verdict = evaluate_slo(series[name], SLOTarget(**{**target.as_record(), "series": name}))
                fake_section = {"slo": [verdict]}
                slo_lines.extend(_format_slo(fake_section, label))
                if not verdict["ok"]:
                    failures += 1
    if slo_lines:
        print("\nSLO verdicts:")
        print("\n".join(slo_lines))

    if args.json is not None:
        payload = {
            "runs": labels,
            "rows": rows,
            "warnings": warnings,
        }
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    if args.strict and failures:
        print(f"FAIL: {failures} SLO violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
