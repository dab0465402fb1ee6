"""Macro-benchmark: ``run_suite`` dispatch overhead on the fig-3 sweep.

``parallel_map`` is the spine of every sweep and of the explorer's
frontier fan-out.  Before PR 7 each call span up a fresh
``multiprocessing`` pool (workers re-import the package per call),
pickled every item twice (a poolability probe plus the pool's own
dispatch) and shipped work at ``chunksize=1``; the persistent
:class:`~repro.harness.runner.WorkerPool` amortises the spawn across
calls, pickles once, and chunks adaptively.

Two figures, both on the quick fig-3 grid (12 points, 2 panels):

* **uncached dispatch** — every point computed, through the pool: the
  cost of a cold sweep.  Multiple benchmark rounds share the persistent
  pool, so the recorded mean is the *amortised* figure a figure-set
  regeneration (seven ``run_suite`` calls back-to-back) actually pays.
* **cached re-run** — the same sweep served entirely from the result
  cache: the stat/read path a warm re-run pays per point (bounded by
  the in-process LRU of :class:`~repro.harness.runner.ResultCache`,
  512 results).  The LRU's lifetime hit/miss counters
  (:func:`repro.harness.runner.cache_stats`) are recorded in
  ``extra_info`` so a warm-path memoisation regression (e.g. entries
  stat-invalidating spuriously) shows in the ledger as a hit-rate
  collapse rather than an unexplained wall-clock drift.
"""

from __future__ import annotations

import tempfile

from repro.harness.figures import SuiteOptions, figure3

try:  # PR 7's persistent pool; absent when benchmarking older code
    from repro.harness.runner import shutdown_pool
except ImportError:  # pragma: no cover - pre-PR-7 ledger runs only
    def shutdown_pool() -> None:
        pass

try:  # PR 8's LRU counters; absent when benchmarking older code
    from repro.harness.runner import cache_stats
except ImportError:  # pragma: no cover - pre-PR-8 ledger runs only
    def cache_stats() -> dict:
        return {}

#: Pool width for the dispatch benchmark: enough to fan the 12-point
#: grid out, small enough to exist on any CI runner.
WORKERS = 4

_CACHE = tempfile.TemporaryDirectory(prefix="repro-dispatch-bench-")


def _options(use_cache: bool) -> SuiteOptions:
    return SuiteOptions(
        processes=WORKERS,
        cache_dir=_CACHE.name,
        use_cache=use_cache,
    )


def _uncached() -> None:
    figure3(True, _options(use_cache=False))


def _cached() -> None:
    figure3(True, _options(use_cache=True))


def test_fig3_uncached_pool_dispatch(benchmark):
    shutdown_pool()  # round 1 pays the spawn; later rounds amortise it
    benchmark.pedantic(_uncached, rounds=3, iterations=1)


def test_fig3_cached_rerun(benchmark):
    before = cache_stats()
    figure3(True, _options(use_cache=True))  # prime the cache once
    benchmark.pedantic(_cached, rounds=5, iterations=1)
    after = cache_stats()
    if after:
        # 5 timed rounds + the priming pass over a 12-point grid should
        # be served from memory; the priming round's disk loads are the
        # only expected misses.
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        benchmark.extra_info["lru_hits"] = hits
        benchmark.extra_info["lru_misses"] = misses
        benchmark.extra_info["lru_capacity"] = after["capacity"]
        assert hits > misses, (hits, misses)
