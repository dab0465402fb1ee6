"""Rendering of reproduced figures, tables and result sets.

``render_table`` is the fixed-width ASCII primitive; ``render_resultset``
turns a :class:`~repro.harness.results.ResultSet` into any of the
:data:`FORMATS` (the CLI's ``--format``); ``render_figure`` pivots a
figure's panels into latency tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.exceptions import ConfigurationError
from repro.harness.figures import FIGURES, curves
from repro.harness.results import ResultSet

#: Output formats understood by the exporting renderers (and the CLI).
FORMATS = ("table", "csv", "json")


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


def render_figure(fig_id: str, panels: dict[str, ResultSet]) -> str:
    """Render a figure's panels as latency tables: one row per x value,
    one column per curve, cells = mean latency [ms]."""
    figure = FIGURES[fig_id]
    blocks = [f"== fig{fig_id}: {figure.title} ==",
              f"   x = {figure.xlabel}; cells = mean latency [ms]"]
    for name, panel in panels.items():
        lines = curves(panel, figure.x)
        xs = sorted({x for points in lines.values() for x in points})
        rows = [
            {"x": x} | {
                label: f"{points[x]:.3f}" if x in points else "-"
                for label, points in lines.items()
            }
            for x in xs
        ]
        blocks.append("")
        blocks.append(render_table(rows, title=f"-- {name} --"))
    return "\n".join(blocks)
