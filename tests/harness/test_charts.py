"""Tests for the ASCII chart renderer."""

from repro.harness import __main__ as cli
from repro.harness.charts import GLYPHS, render_chart
from repro.harness.results import ResultSet


def curves(*lines):
    """A columnar ResultSet: one ``label`` per (label, points) line."""
    rows = [(label, x, y) for label, points in lines for x, y in points]
    return ResultSet({
        "label": [label for label, _, _ in rows],
        "payload": [x for _, x, _ in rows],
        "latency.mean_ms": [y for _, _, y in rows],
    })


def render(*lines, **kwargs):
    return render_chart(curves(*lines), "payload", **kwargs)


class TestRenderChart:
    def test_empty_series(self):
        assert render(("a", [])) == "(no data)"

    def test_contains_axes_legend_and_glyphs(self):
        chart = render(
            ("fast", [(0, 1.0), (100, 2.0)]),
            ("slow", [(0, 2.0), (100, 8.0)]),
            width=40,
            height=8,
            title="demo",
        )
        assert "demo" in chart
        assert "* = fast" in chart
        assert "o = slow" in chart
        assert "+" + "-" * 40 in chart
        assert "8 ms" in chart  # y-axis top label
        assert "0" in chart and "100" in chart  # x-axis labels

    def test_monotone_series_renders_monotone_rows(self):
        chart = render(
            ("up", [(0, 0.0), (50, 5.0), (100, 10.0)]),
            width=20,
            height=10,
        )
        rows = [line for line in chart.splitlines() if line.startswith("|")]
        cols = []
        for row_index, row in enumerate(rows):
            for col_index, ch in enumerate(row):
                if ch == "*":
                    cols.append((col_index, row_index))
        cols.sort()
        # As x grows (columns increase), the row index must not increase
        # (higher latency = nearer the top).
        row_sequence = [r for _, r in cols]
        assert row_sequence == sorted(row_sequence, reverse=True)

    def test_single_point(self):
        chart = render(("dot", [(5, 3.0)]), width=10, height=5)
        grid_rows = [line for line in chart.splitlines() if line.startswith("|")]
        assert sum(row.count("*") for row in grid_rows) == 1

    def test_glyph_cycling(self):
        many = [(f"s{i}", [(i, float(i + 1))]) for i in range(8)]
        chart = render(*many, width=30, height=8)
        for i in range(8):
            assert f"{GLYPHS[i % len(GLYPHS)]} = s{i}" in chart

    def test_rows_without_y_are_skipped(self):
        # A probe measured on only some points charts what it measured:
        # the unmeasured row draws nothing and does not set the scale.
        chart = render(
            ("a", [(0, 1.0), (50, None), (100, 2.0)]),
            ("b", [(0, None)]),
            width=20,
            height=6,
        )
        grid_rows = [line for line in chart.splitlines() if line.startswith("|")]
        assert sum(row.count("*") for row in grid_rows) == 2
        assert "o" not in "".join(grid_rows)
        assert "2 ms" in chart
        assert "o = b" in chart


class TestCliCharts:
    def test_chart_flag_renders_every_panel(self, monkeypatch, capsys):
        panels = {
            "p1": curves(("a", [(1, 1.0), (2, 2.0)])),
            "p2": curves(("b", [(1, 3.0), (2, 1.0)])),
        }
        monkeypatch.setattr(
            cli, "run_figures", lambda fig_ids, **kwargs: {"1": panels}
        )
        assert cli.main(["--figure", "1", "--chart"]) == 0
        out = capsys.readouterr().out
        assert out.count("== fig1: ") == 2  # the tables, then the charts
        assert "-- p1 --" in out and "-- p2 --" in out
        assert "* = a" in out and "* = b" in out
