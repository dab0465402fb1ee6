"""Rendering of reproduced figures, tables, result sets and suites.

``render_table`` is the fixed-width ASCII primitive; everything else is
a view over it (or over CSV/JSON for machine consumption).  The
queryable surface behind these renderers is the columnar
:class:`~repro.harness.results.ResultSet` — ``render_resultset`` turns
one into any of the three output formats, which is also what the CLI's
``--format`` flag calls.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping

from repro.core.exceptions import ConfigurationError
from repro.harness.figures import FigureData, Series
from repro.harness.results import ResultSet
from repro.harness.runner import SuiteResult

#: Output formats understood by the exporting renderers (and the CLI).
FORMATS = ("table", "csv", "json")

#: Compact column selection for suite summaries.
SUITE_COLUMNS = (
    "name",
    "throughput",
    "payload",
    "latency.mean_ms",
    "latency.p90_ms",
    "sent",
    "undelivered",
)


def render_table(rows: Iterable[Mapping], title: str | None = None) -> str:
    """Render dict rows as a fixed-width ASCII table."""
    rows = list(rows)
    if not rows:
        return "(empty table)"
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r[c])) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(" | ".join(str(row[c]).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def render_rows(
    rows: Iterable[Mapping],
    format: str = "table",
    title: str | None = None,
) -> str:
    """Render plain dict rows in any supported format.

    The CSV/JSON siblings of :func:`render_table` for row lists that do
    not come from a :class:`ResultSet` (e.g. the Figure-2 arithmetic
    table); the title only applies to the table format.
    """
    if format not in FORMATS:
        raise ConfigurationError(
            f"unknown format {format!r}; choose one of {', '.join(FORMATS)}"
        )
    rows = list(rows)
    if format == "json":
        return json.dumps(rows, indent=2)
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if rows:
            writer.writerow(list(rows[0].keys()))
            for row in rows:
                writer.writerow(list(row.values()))
        return out.getvalue()
    return render_table(rows, title=title)


def _display(value) -> object:
    """Round floats for terminal tables; leave exports full-precision."""
    if isinstance(value, float):
        return round(value, 3)
    return "-" if value is None else value


def render_resultset(
    rs: ResultSet,
    format: str = "table",
    columns: tuple[str, ...] | None = None,
    title: str | None = None,
) -> str:
    """Render a :class:`ResultSet` as an ASCII table, CSV, or JSON.

    ``columns`` restricts (and orders) the output; the table format
    rounds floats to 3 decimals for width, while CSV and JSON keep
    full precision for downstream analysis.
    """
    if format not in FORMATS:
        raise ConfigurationError(
            f"unknown format {format!r}; choose one of {', '.join(FORMATS)}"
        )
    if columns is not None:
        rs = rs.select(*columns)
    if format == "csv":
        return rs.to_csv()
    if format == "json":
        return rs.to_json(indent=2)
    return render_table(
        [
            {name: _display(value) for name, value in row.items()}
            for row in rs.to_rows()
        ],
        title=title,
    )


def _series_rows(series: list[Series]) -> list[dict]:
    xs = sorted({x for s in series for x, _ in s.points})
    rows = []
    for x in xs:
        row: dict = {"x": x}
        for s in series:
            value = next((lat for px, lat in s.points if px == x), None)
            row[s.label] = "-" if value is None else f"{value:.3f}"
        rows.append(row)
    return rows


def render_figure(figure: FigureData) -> str:
    """Render a reproduced figure as per-panel latency tables (ms)."""
    blocks = [f"== {figure.fig_id}: {figure.title} ==",
              f"   x = {figure.xlabel}; cells = mean latency [ms]"]
    for panel, series in figure.panels.items():
        blocks.append("")
        blocks.append(render_table(_series_rows(series), title=f"-- {panel} --"))
    return "\n".join(blocks)


def render_suite(
    suite: SuiteResult, title: str | None = None, format: str = "table"
) -> str:
    """Render a :func:`~repro.harness.runner.run_suite` outcome.

    One row per experiment — the compact :data:`SUITE_COLUMNS` slice of
    the suite's :class:`ResultSet` — followed by the cache/wall
    accounting line (as a JSON field in ``format="json"``, omitted from
    CSV so the output stays machine-parseable).
    """
    if format not in FORMATS:
        raise ConfigurationError(
            f"unknown format {format!r}; choose one of {', '.join(FORMATS)}"
        )
    rs = suite.result_set()
    available = tuple(c for c in SUITE_COLUMNS if c in rs.columns)
    if format == "csv":
        return render_resultset(rs, format="csv", columns=available)
    if format == "json":
        return json.dumps(
            {
                "summary": suite.summary(),
                "rows": rs.select(*available).to_rows(),
            },
            indent=2,
        )
    table = render_resultset(rs, columns=available, title=title)
    return f"{table}\n[{suite.summary()}]"


def crossover_summary(series_a: Series, series_b: Series) -> str:
    """One-line comparison: who wins at each shared x (for EXPERIMENTS.md)."""
    xs = sorted(
        {x for x, _ in series_a.points} & {x for x, _ in series_b.points}
    )
    parts = []
    for x in xs:
        a = next(lat for px, lat in series_a.points if px == x)
        b = next(lat for px, lat in series_b.points if px == x)
        winner = series_a.label if a < b else series_b.label
        parts.append(f"x={x:g}: {winner} ({a:.2f} vs {b:.2f} ms)")
    return "; ".join(parts)
