"""Macro-benchmark: ``run_suite`` dispatch overhead on the fig-3 sweep.

``parallel_map`` is the spine of every sweep and of the explorer's
multi-spec fan-out.  Each call opens one worker pool, chunks the items
to a few per worker, and closes the pool before returning.  The e2e
``fig3_sweep`` workload runs serially, so the pool and the warm cache
path are measured only here.

Two figures, both on the quick fig-3 grid (12 points, 2 panels):

* **uncached dispatch** — every point computed, through the pool: the
  cost of a cold sweep, pool start and close included in every round.
* **cached re-run** — the same sweep served entirely from the on-disk
  result cache: the read path a warm re-run pays per point.  Every
  timed round must report each point as a cache hit, so a cache-key or
  load regression fails as a recomputation rather than an unexplained
  wall-clock drift.
"""

from __future__ import annotations

import tempfile

from repro.harness import figures
from repro.harness.runner import run_suite

#: Pool width for the dispatch benchmark: enough to fan the 12-point
#: grid out, small enough to exist on any CI runner.
WORKERS = 4

_CACHE = tempfile.TemporaryDirectory(prefix="repro-dispatch-bench-")


def _figure3(use_cache: bool) -> None:
    figures.run_figures(["3"], processes=WORKERS, cache_dir=_CACHE.name,
                        use_cache=use_cache)


def _uncached() -> None:
    _figure3(use_cache=False)


def _cached() -> None:
    _figure3(use_cache=True)


def test_fig3_uncached_pool_dispatch(benchmark):
    benchmark.pedantic(_uncached, rounds=3, iterations=1)


def test_fig3_cached_rerun(benchmark, monkeypatch):
    _cached()  # prime the cache once
    suites = []

    def recording_run_suite(*args, **kwargs):
        suites.append(run_suite(*args, **kwargs))
        return suites[-1]

    monkeypatch.setattr(figures, "run_suite", recording_run_suite)
    benchmark.pedantic(_cached, rounds=5, iterations=1)
    assert len(suites) == 5
    assert all(suite.cache_hits == len(suite) for suite in suites), [
        suite.summary() for suite in suites
    ]
    benchmark.extra_info["cache_hits_per_round"] = suites[-1].cache_hits
