"""Tests for the figure experiment definitions (cheap — no simulations).

These pin the *configuration* of each reproduced figure to the paper:
the right stacks, group sizes, network setups and sweep axes; the heavy
measured assertions live in benchmarks/.
"""

from types import SimpleNamespace

import pytest

from repro.harness import figures
from repro.harness.experiment import ExperimentResult
from repro.harness.runner import spec_key
from repro.net.setups import SETUP_1, SETUP_2


class TestVariantTable:
    def test_paper_legend_labels_map_to_stacks(self):
        cases = {
            "Consensus": ("on-messages", "ct"),
            "(Faulty) Consensus": ("faulty-ids", "ct"),
            "Indirect consensus": ("indirect", "ct-indirect"),
            "Indirect consensus w/ rbcast O(n^2)": ("indirect", "ct-indirect"),
            "Indirect consensus w/ rbcast O(n)": ("indirect", "ct-indirect"),
            "Consensus w/ uniform rbcast": ("urb-ids", "ct"),
        }
        for label, (abcast, consensus) in cases.items():
            spec = figures._stack(label, n=3, params=SETUP_1, seed=0)
            assert spec.abcast == abcast
            assert spec.consensus == consensus

    def test_figs_134_use_linear_rb(self):
        for label in ("Consensus", "(Faulty) Consensus", "Indirect consensus"):
            spec = figures._stack(label, n=3, params=SETUP_1, seed=0)
            assert spec.rb == "sender"

    def test_fig5_vs_fig6_rb_variants(self):
        flood = figures._stack(
            "Indirect consensus w/ rbcast O(n^2)", n=3, params=SETUP_2, seed=0
        )
        sender = figures._stack(
            "Indirect consensus w/ rbcast O(n)", n=3, params=SETUP_2, seed=0
        )
        assert flood.rb == "flood"
        assert sender.rb == "sender"

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            figures._stack("Paxos", n=3, params=SETUP_1, seed=0)


class TestSweepAxes:
    """The full grids must match the paper's axis ranges."""

    def test_the_six_measured_figures(self):
        assert list(figures.FIGURES) == ["1", "3", "4", "5", "6", "7"]

    def test_fig1_sweeps_to_5000_bytes_at_both_rates(self):
        panels = figures.FIGURES["1"].panels
        assert [p.throughputs.full for p in panels] == [(100.0,), (800.0,)]
        for panel in panels:
            assert max(panel.payloads.quick) == max(panel.payloads.full) == 5000

    def test_fig3_covers_both_group_sizes(self):
        assert [p.n for p in figures.FIGURES["3"].panels] == [3, 5]

    def test_fig4_has_four_throughput_panels(self):
        panels = figures.FIGURES["4"].panels
        assert [p.throughputs.full for p in panels] == [
            (10.0,), (100.0,), (400.0,), (800.0,)
        ]

    def test_figure_setups(self):
        for fig_id, setup in (("1", SETUP_1), ("3", SETUP_1), ("4", SETUP_1),
                              ("5", SETUP_2), ("6", SETUP_2), ("7", SETUP_2)):
            for panel in figures.FIGURES[fig_id].panels:
                assert panel.params is setup, (fig_id, panel.name)

    def test_fig7_has_both_rb_panels(self):
        panels = figures.FIGURES["7"].panels
        assert [p.name for p in panels] == [
            "RB in O(n^2) messages", "RB in O(n) messages"
        ]
        assert [figures._LEGEND[p.variants[0]][2] for p in panels] == [
            "flood", "sender"
        ]


class TestRunFigures:
    def test_one_suite_call_in_declaration_order(self, monkeypatch):
        calls = []

        def fake_run_suite(sweeps, **kwargs):
            specs = [spec for sweep in sweeps for spec in sweep.experiments()]
            calls.append(specs)
            return SimpleNamespace(results=[
                ExperimentResult(spec, {}, 0, 0, 0.0, 0.0) for spec in specs
            ])

        monkeypatch.setattr(figures, "run_suite", fake_run_suite)
        out = figures.run_figures(list(figures.FIGURES))
        [specs] = calls
        assert len(specs) == 96
        assert len({spec_key(spec) for spec in specs}) == 70
        # Sliced back by position: each panel holds its own sweep's
        # points, and the panels concatenate to the submitted order.
        names = []
        for fig_id, figure in figures.FIGURES.items():
            assert list(out[fig_id]) == [p.name for p in figure.panels]
            for panel in figure.panels:
                column = out[fig_id][panel.name].column("name")
                assert all(name.startswith(panel.sweep + "/")
                           for name in column)
                names.extend(column)
        assert names == [spec.name for spec in specs]
