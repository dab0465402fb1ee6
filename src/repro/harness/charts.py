"""ASCII chart rendering for reproduced figures.

Terminal-friendly scatter/line charts so `python -m repro.harness` can
show curve *shapes* directly, next to the numeric tables — the closest
offline equivalent of the paper's gnuplot figures.  A chart plots two
columns of a :class:`~repro.harness.results.ResultSet`, one curve per
``label``, so ad-hoc sweeps chart the same way figure panels do.
"""

from __future__ import annotations

from repro.harness.results import ResultSet

#: Glyphs assigned to curves in order (paper figures have <= 3 lines).
GLYPHS = "*o+x#@"


def _scale(value: float, lo: float, hi: float, cells: int) -> int:
    if hi <= lo:
        return 0
    position = (value - lo) / (hi - lo)
    return min(cells - 1, max(0, round(position * (cells - 1))))


def render_chart(
    rs: ResultSet,
    x: str,
    y: str = "latency.mean_ms",
    width: int = 64,
    height: int = 16,
    title: str | None = None,
) -> str:
    """Render ``rs`` as an ASCII chart of ``y`` against ``x`` [ms].

    One curve per ``label`` value.  Rows whose ``y`` is ``None`` are
    skipped — a probe measured on only some variants charts what it
    measured.  Points from different curves that land on the same cell
    are drawn with the glyph of the *first* curve (they are that close
    anyway).
    """
    curves = [
        (label, [
            (px, py)
            for px, py in zip(curve.column(x), curve.column(y))
            if py is not None
        ])
        for (label,), curve in rs.group_by("label").items()
    ]
    points = [point for _, curve in curves for point in curve]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys)

    grid = [[" "] * width for _ in range(height)]
    for index, (_, curve) in enumerate(curves):
        glyph = GLYPHS[index % len(GLYPHS)]
        for px, py in curve:
            col = _scale(px, x_lo, x_hi, width)
            row = height - 1 - _scale(py, y_lo, y_hi, height)
            if grid[row][col] == " ":
                grid[row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_hi:.3g} ms"
    lines.append(top_label)
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {x_lo:g}" + f"{x_hi:g}".rjust(width - len(f"{x_lo:g}")))
    for index, (label, _) in enumerate(curves):
        glyph = GLYPHS[index % len(GLYPHS)]
        lines.append(f"  {glyph} = {label}")
    return "\n".join(lines)
