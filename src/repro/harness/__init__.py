"""Experiment harness: regenerate every figure of the paper.

* :mod:`repro.harness.experiment` — one experiment = one simulated run
  (stack spec + workload + measurement window) producing a latency
  report and diagnostics.
* :mod:`repro.harness.suite` — declarative sweep grids:
  :class:`~repro.harness.suite.SweepSpec` expands stacks × throughputs
  × payloads × seeds into experiment specs.
* :mod:`repro.harness.runner` — parallel execution:
  :func:`~repro.harness.runner.run_suite` fans a sweep out over a
  process pool with a content-addressed on-disk result cache.
* :mod:`repro.harness.figures` — the paper's figures as data:
  :data:`~repro.harness.figures.FIGURES` declares each figure's panels
  and grids, and :func:`~repro.harness.figures.run_figures` runs the
  selected figures in one suite call, returning one ``ResultSet`` per
  panel, in *quick* or *full* resolution.
* :mod:`repro.harness.results` — the columnar
  :class:`~repro.harness.results.ResultSet` query surface over suite
  output (``select``/``where``/``group_by``/``mean``,
  ``to_rows``/``to_csv``/``to_json``); every metric-probe field is a
  column.
* :mod:`repro.harness.report` — ASCII/CSV/JSON rendering of figure
  panels and result sets.

Command line::

    python -m repro.harness --figure 3          # quick resolution
    python -m repro.harness --figure all --full # full sweep
    python -m repro.harness --figure 7 --jobs 8 # parallel sweep pool
"""

from repro.harness.experiment import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.harness.runner import (
    ResultCache,
    SuiteError,
    SuiteResult,
    cache_stats,
    parallel_map,
    run_suite,
    spec_key,
)
from repro.harness.results import ResultSet, concat
from repro.harness.suite import SweepSpec, expand
from repro.harness.figures import FIGURES, curves, figure2_table, run_figures
from repro.harness.report import render_figure, render_resultset, render_table

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "FIGURES",
    "ResultCache",
    "ResultSet",
    "SuiteError",
    "SuiteResult",
    "SweepSpec",
    "cache_stats",
    "concat",
    "curves",
    "expand",
    "figure2_table",
    "parallel_map",
    "render_figure",
    "render_resultset",
    "render_table",
    "run_experiment",
    "run_figures",
    "run_suite",
    "spec_key",
]
