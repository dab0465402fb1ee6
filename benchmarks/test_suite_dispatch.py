"""Macro-benchmark: ``run_suite`` dispatch overhead on the fig-3 sweep.

``parallel_map`` is the spine of every sweep and of the explorer's
frontier fan-out.  The persistent
:class:`~repro.harness.runner.WorkerPool` amortises the spawn across
calls, pickles each item once, and chunks adaptively.  The e2e
``fig3_sweep`` workload runs serially, so the pool and the warm cache
path are measured only here.

Two figures, both on the quick fig-3 grid (12 points, 2 panels):

* **uncached dispatch** — every point computed, through the pool: the
  cost of a cold sweep.  Multiple benchmark rounds share the persistent
  pool, so the recorded mean is the *amortised* figure that
  back-to-back regenerations actually pay.
* **cached re-run** — the same sweep served entirely from the result
  cache: the stat/read path a warm re-run pays per point (bounded by
  the in-process LRU of :class:`~repro.harness.runner.ResultCache`,
  512 results).  The LRU's lifetime hit/miss counters
  (:func:`repro.harness.runner.cache_stats`) must show more hits than
  misses, so a warm-path memoisation regression (e.g. entries
  stat-invalidating spuriously) fails as a hit-rate collapse rather
  than an unexplained wall-clock drift.
"""

from __future__ import annotations

import tempfile

from repro.harness.figures import run_figures
from repro.harness.runner import cache_stats, shutdown_pool

#: Pool width for the dispatch benchmark: enough to fan the 12-point
#: grid out, small enough to exist on any CI runner.
WORKERS = 4

_CACHE = tempfile.TemporaryDirectory(prefix="repro-dispatch-bench-")


def _figure3(use_cache: bool) -> None:
    run_figures(["3"], processes=WORKERS, cache_dir=_CACHE.name,
                use_cache=use_cache)


def _uncached() -> None:
    _figure3(use_cache=False)


def _cached() -> None:
    _figure3(use_cache=True)


def test_fig3_uncached_pool_dispatch(benchmark):
    shutdown_pool()  # round 1 pays the spawn; later rounds amortise it
    benchmark.pedantic(_uncached, rounds=3, iterations=1)


def test_fig3_cached_rerun(benchmark):
    before = cache_stats()
    _cached()  # prime the cache once
    benchmark.pedantic(_cached, rounds=5, iterations=1)
    after = cache_stats()
    # 5 timed rounds + the priming pass over a 12-point grid should be
    # served from memory; the priming round's disk loads are the only
    # expected misses.
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    benchmark.extra_info["lru_hits"] = hits
    benchmark.extra_info["lru_misses"] = misses
    benchmark.extra_info["lru_capacity"] = after["capacity"]
    assert hits > misses, (hits, misses)
