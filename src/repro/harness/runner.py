"""Parallel suite execution with a content-addressed result cache.

:func:`run_suite` takes a :class:`~repro.harness.suite.SweepSpec` (or a
flat list of :class:`~repro.harness.experiment.ExperimentSpec`) and:

1. looks each point up in an on-disk cache keyed by a stable hash of
   the spec's *physical* content (everything except the display name),
   so re-running a figure only computes missing points — and two
   figures that share a configuration share the cached result;
2. fans the missing points out over a ``multiprocessing`` pool (specs
   and results are frozen dataclasses of primitives — including the
   declarative fault rules and topologies, which is why crafted fault
   scenarios parallelise), falling back to in-process execution for
   anything that cannot cross a process boundary;
3. stores the computed results atomically and returns everything in
   input order.

Determinism: ``run_experiment`` is a pure function of its spec (all
randomness flows from the seeded RNG registry), so a point computed in
a worker process is bit-for-bit identical to one computed serially —
asserted in ``tests/harness/test_runner.py``.  Only the wall-clock
``wall_seconds`` diagnostic differs between runs.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from repro.harness.experiment import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.harness.suite import SweepSpec, expand
from repro.stack.registry import registry_epoch


class SuiteError(RuntimeError):
    """One or more suite points failed.

    ``stored`` reports how many completed sibling points made it into
    the cache before the error surfaced; those are not recomputed on a
    re-run.
    """

    def __init__(self, failures: list[str], stored: int = 0) -> None:
        self.failures = failures
        self.stored = stored
        summary = "; ".join(failures[:3])
        if len(failures) > 3:
            summary += f"; ... ({len(failures)} failures total)"
        if stored:
            recovery = (
                f"{stored} completed point(s) were cached and survive a re-run"
            )
        else:
            recovery = "no completed point could be cached"
        super().__init__(
            f"{len(failures)} experiment(s) failed ({recovery}): {summary}"
        )

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Bump on result-format changes that a source fingerprint alone cannot
#: express (e.g. reinterpreting an existing field).  Numeric-behaviour
#: changes are covered automatically: the cache key folds in a content
#: hash of the whole ``repro`` source tree, so any code edit invalidates
#: old entries instead of serving stale figures.
#: v2: results carry the generic ``metrics`` probe payload instead of
#: fixed measurement fields; v1 entries are ignored (never mis-read).
CACHE_VERSION = 2

#: Default cache location; override per call or via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro-sweeps"


# ----------------------------------------------------------------------
# Stable spec hashing
# ----------------------------------------------------------------------

_code_fingerprint_cache: str | None = None


def _code_fingerprint() -> str:
    """Content hash of every ``repro`` source file (memoised per process).

    Editing any simulation code changes the fingerprint, so cached
    results computed by older code miss automatically — a reproduction
    must never serve figures from a stale implementation.
    """
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        import repro

        digest = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(source.read_bytes())
        _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def spec_key(spec: ExperimentSpec) -> str | None:
    """Stable content hash of a spec, or ``None`` if uncacheable.

    The hash covers every field that influences the simulation —
    ``name`` and ``label`` are excluded, they are presentation only —
    plus
    :data:`CACHE_VERSION` and the :func:`_code_fingerprint` of the
    installed ``repro`` sources.  Declarative fault rules and
    topologies are dataclasses of primitives, so fault scenarios hash
    (and cache) like any other spec; changing a single rule changes
    the key.  A spec carrying a non-serialisable field has no stable
    content hash and is reported uncacheable.
    """
    data = dataclasses.asdict(spec)
    data.pop("name")
    data.pop("label")
    try:
        blob = json.dumps(
            {
                "version": CACHE_VERSION,
                "code": _code_fingerprint(),
                "spec": data,
            },
            sort_keys=True,
        )
    except TypeError:
        return None
    return hashlib.sha256(blob.encode()).hexdigest()


#: In-process LRU over :meth:`ResultCache.load`, shared by every cache
#: instance (``run_suite`` builds a fresh ``ResultCache`` per call, so
#: per-instance memoisation would never get warm).  Entries are keyed
#: by path and validated against ``os.stat`` (size + mtime_ns) on every
#: hit, so an entry rewritten — or corrupted — on disk behind our back
#: is a miss, exactly as if it had never been memoised.  Results are
#: treated as immutable throughout the harness, so handing the same
#: object out repeatedly is safe.  It holds at most ``_LOAD_LRU_MAX``
#: results (``cache_stats()["capacity"]``).
_LOAD_LRU_MAX = 512
_load_lru: OrderedDict[Path, tuple[int, int, ExperimentResult]] = (
    OrderedDict()
)
#: Lifetime hit/miss counters of the in-process LRU (a *hit* is a
#: stat-validated memo; loads that fall through to disk — cold, stale,
#: or corrupt — count as misses).  Read through :func:`cache_stats`.
_lru_hits = 0
_lru_misses = 0


def cache_stats() -> dict[str, int]:
    """Hit/miss/size/capacity counters of the in-process result LRU.

    ``hits`` are loads served from memory (after stat validation);
    ``misses`` are loads that went to disk — whether the entry was
    cold, invalidated by a changed ``stat``, or unreadable.  The
    bench-suite dispatch benchmark records these so a regression in
    warm-path memoisation shows up in the perf ledger, not just as a
    mysterious wall-clock drift.
    """
    return {
        "hits": _lru_hits,
        "misses": _lru_misses,
        "size": len(_load_lru),
        "capacity": _LOAD_LRU_MAX,
    }


def _lru_remember(path: Path, size: int, mtime_ns: int, result) -> None:
    _load_lru[path] = (size, mtime_ns, result)
    _load_lru.move_to_end(path)
    while len(_load_lru) > _LOAD_LRU_MAX:
        _load_lru.popitem(last=False)


class ResultCache:
    """Content-addressed pickle store of experiment results.

    ``load`` goes through a small in-process LRU (stat-validated, see
    :data:`_load_lru`): a warm re-run of a sweep re-reads nothing from
    disk, it only pays one ``stat`` per point.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(
        self, spec: ExperimentSpec, key: str | None = None
    ) -> Path | None:
        """Cache path for ``spec`` (pass a precomputed ``key`` to avoid
        re-hashing the spec)."""
        if key is None:
            key = spec_key(spec)
        return None if key is None else self.root / f"{key}.pkl"

    def load(
        self, spec: ExperimentSpec, key: str | None = None
    ) -> ExperimentResult | None:
        """Return the cached result for ``spec``, or ``None`` on a miss.

        The stored spec's display name may differ from ``spec.name``
        (the hash ignores names); the returned result carries the
        caller's spec so reports label points correctly.
        """
        global _lru_hits, _lru_misses
        path = self.path_for(spec, key)
        if path is None:
            return None
        try:
            stat = path.stat()
        except OSError:
            return None
        memo = _load_lru.get(path)
        if (
            memo is not None
            and memo[0] == stat.st_size
            and memo[1] == stat.st_mtime_ns
        ):
            _lru_hits += 1
            _load_lru.move_to_end(path)
            return replace(memo[2], spec=spec)
        _lru_misses += 1
        try:
            with path.open("rb") as fh:
                result: ExperimentResult = pickle.load(fh)
            if not isinstance(result, ExperimentResult):
                # A foreign pickle: ignore cleanly, never hand a
                # mis-shaped object downstream.
                return None
            _lru_remember(path, stat.st_size, stat.st_mtime_ns, result)
            return replace(result, spec=spec)
        except Exception:
            # Corrupt or stale entry (truncated write, a pickle
            # referencing since-renamed classes, or an old result
            # schema that fails re-validation): recompute and overwrite.
            return None

    def store(
        self,
        spec: ExperimentSpec,
        result: ExperimentResult,
        key: str | None = None,
    ) -> bool:
        """Persist ``result`` under ``spec``'s key (atomic). False if uncacheable."""
        path = self.path_for(spec, key)
        if path is None:
            return False
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        try:
            stat = path.stat()
        except OSError:
            return True
        _lru_remember(path, stat.st_size, stat.st_mtime_ns, result)
        return True


# ----------------------------------------------------------------------
# Parallel map
# ----------------------------------------------------------------------


class _PickledTask:
    """The callable shipped to pool workers: a pre-pickled function
    applied to pre-pickled items.

    ``parallel_map`` serialises ``fn`` and each item exactly once in
    the parent (the bytes double as the poolability probe); workers
    unpickle the function once per dispatched chunk (memoised on the
    instance) and each item once — the same total deserialisation work
    the pool's own transport used to do, minus the parent's redundant
    probe pass.
    """

    __slots__ = ("_fn_bytes", "_fn")

    def __init__(self, fn_bytes: bytes) -> None:
        self._fn_bytes = fn_bytes
        self._fn = None

    def __getstate__(self) -> bytes:
        return self._fn_bytes

    def __setstate__(self, fn_bytes: bytes) -> None:
        self._fn_bytes = fn_bytes
        self._fn = None

    def __call__(self, item_bytes: bytes):
        fn = self._fn
        if fn is None:
            fn = self._fn = pickle.loads(self._fn_bytes)
        return fn(pickle.loads(item_bytes))


class WorkerPool:
    """A lazily created, process-wide pool reused across ``parallel_map``
    calls.

    Spawning a ``multiprocessing.Pool`` costs each worker a full
    interpreter start (or fork) plus a ``repro`` import; per-call pools
    paid that on *every* sweep and every explorer frontier wave.  One
    persistent pool amortises it across the process lifetime.

    The pool is recycled (workers terminated, fresh ones created) when
    a call needs more workers than it has, when the layer/probe
    registries changed since it was created (fork-started workers
    snapshot registration state — a probe registered after the fork
    would not exist in the old workers), or when a dispatch raised (a
    raising ``fn`` or a broken worker leaves pool state unknown; the
    next call starts clean, exactly like the old per-call pools).
    After a ``fork`` of the *parent*, the child drops the inherited
    handle without terminating — the workers belong to the parent.

    Platform-default start method, as before: fork is unsafe on macOS
    (and from threaded processes generally), and spawn/forkserver work
    because everything shipped to workers is pickle-clean.  Caveat
    either way: specs naming *custom* metric probes need those probes
    registered before the pool exists — at import time of a module
    workers re-import (spawn), or simply before the first
    ``parallel_map`` call (fork; the registry epoch check recycles the
    pool on late registrations automatically).
    """

    def __init__(self) -> None:
        self._pool = None
        self._size = 0
        self._pid = -1
        self._epoch = -1

    def acquire(self, workers: int):
        """A live pool with ≥ ``workers`` workers, or ``None`` when one
        cannot exist here (daemonic context, failed spawn)."""
        if multiprocessing.current_process().daemon:
            return None  # pool workers cannot have children of their own
        epoch = registry_epoch()
        pool = self._pool
        if pool is not None and (
            self._pid != os.getpid()
            or self._size < workers
            or self._epoch != epoch
        ):
            self.shutdown(terminate=self._pid == os.getpid())
            pool = None
        if pool is None:
            try:
                pool = multiprocessing.get_context().Pool(workers)
            except Exception:
                return None
            self._pool = pool
            self._size = workers
            self._pid = os.getpid()
            self._epoch = epoch
        return pool

    def shutdown(self, terminate: bool = True) -> None:
        """Dispose the pool (idempotent); next ``acquire`` starts fresh."""
        pool, self._pool = self._pool, None
        self._size = 0
        if pool is not None and terminate:
            pool.terminate()
            pool.join()


_POOL = WorkerPool()


def shutdown_pool() -> None:
    """Terminate the persistent ``parallel_map`` worker pool, if any.

    Call to reclaim the workers (long-lived driver going quiet) or to
    force the next ``parallel_map`` onto freshly spawned workers.  The
    pool recreates itself lazily on the next use either way; an
    ``atexit`` hook runs this so interpreter shutdown never hangs on
    live workers.
    """
    _POOL.shutdown()


atexit.register(shutdown_pool)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    processes: int | None = None,
) -> list[_R]:
    """``[fn(x) for x in items]`` across a process pool, order preserved.

    Dispatches over the persistent :class:`WorkerPool` (see its
    docstring for lifetime and fork-safety notes), pickling ``fn`` and
    each item exactly once — the bytes double as the poolability probe
    and the dispatch payload — with chunks sized to a few per worker
    (``len(items) / (4 · workers)``, floor 1) so dynamic load imbalance
    stays bounded without paying per-item dispatch.

    Serial fallback when a pool cannot help (one item, one worker) or
    cannot work (``fn``/items that do not pickle, daemonic context).
    Used by :func:`run_suite` and directly by scenario scripts that fan
    out whole staged runs (``examples/faulty_vs_indirect.py``).
    """
    items = list(items)
    if not items:
        return []
    workers = processes if processes is not None else os.cpu_count() or 1
    workers = max(1, min(workers, len(items)))
    if workers == 1:
        return [fn(item) for item in items]
    try:
        fn_bytes = pickle.dumps(fn, pickle.HIGHEST_PROTOCOL)
    except Exception:
        return [fn(item) for item in items]
    poolable: list[int] = []
    payloads: list[bytes] = []
    for index, item in enumerate(items):
        try:
            payloads.append(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
        except Exception:
            continue
        poolable.append(index)
    results: list[_R | None] = [None] * len(items)
    poolable_set: set[int] = set()
    if len(poolable) > 1:
        pool = _POOL.acquire(min(workers, len(poolable)))
        if pool is not None:
            chunksize = max(1, len(poolable) // (4 * workers))
            try:
                mapped = pool.map(
                    _PickledTask(fn_bytes), payloads, chunksize=chunksize
                )
            except Exception:
                _POOL.shutdown()
                raise
            for index, result in zip(poolable, mapped):
                results[index] = result
            poolable_set = set(poolable)
    for index, item in enumerate(items):
        if index not in poolable_set:
            results[index] = fn(item)
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Suite runner
# ----------------------------------------------------------------------


def _run_checked(spec: ExperimentSpec) -> ExperimentResult | str:
    """Run one point; return an error description instead of raising.

    Exceptions must not cross the pool boundary as-is: one degenerate
    point would abort ``pool.map`` and discard every completed sibling.
    """
    try:
        return run_experiment(spec)
    except Exception as exc:
        return f"{spec.name}: {type(exc).__name__}: {exc}"


@dataclass
class SuiteResult:
    """Outcome of one :func:`run_suite` call.

    ``results`` is aligned with ``specs`` (the expanded input order).
    Accounting: ``cache_hits`` counts points served without a fresh
    simulation — from disk, or from another point of the *same call*
    with an identical content hash; ``cache_misses`` counts unique
    points actually computed (and stored when possible);
    ``uncacheable`` counts computed points with no content hash
    (a spec carrying a non-serialisable field).  The three always sum
    to ``len(self)``.
    """

    specs: list[ExperimentSpec]
    results: list[ExperimentResult]
    cache_hits: int
    cache_misses: int
    uncacheable: int
    wall_seconds: float

    def __len__(self) -> int:
        return len(self.results)

    def pairs(self) -> list[tuple[ExperimentSpec, ExperimentResult]]:
        return list(zip(self.specs, self.results))

    def by_name(self) -> dict[str, ExperimentResult]:
        """Index results by experiment name (names are unique per suite)."""
        return {spec.name: result for spec, result in self.pairs()}

    def result_set(self):
        """The suite's results as a columnar
        :class:`~repro.harness.results.ResultSet`."""
        from repro.harness.results import ResultSet

        return ResultSet.from_suite(self)

    def summary(self) -> str:
        """One line for progress output and CI logs."""
        parts = [f"{len(self)} points", f"{self.cache_hits} cached"]
        computed = len(self) - self.cache_hits
        parts.append(f"{computed} computed")
        if self.uncacheable:
            parts.append(f"{self.uncacheable} uncacheable")
        return f"{', '.join(parts)} in {self.wall_seconds:.1f}s"


def run_suite(
    suite: SweepSpec | Iterable[SweepSpec] | Sequence[ExperimentSpec],
    *,
    processes: int | None = None,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
) -> SuiteResult:
    """Execute a sweep (or explicit spec list), cached and in parallel.

    Args:
        suite: A :class:`SweepSpec`, a sequence of them, or an already
            expanded sequence of :class:`ExperimentSpec`.
        processes: Pool size; ``None`` = one worker per CPU (capped at
            the number of points to run), ``1`` = fully serial.
        cache_dir: Result cache location; ``None`` uses
            ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``.  An
            unwritable location degrades gracefully: everything runs
            live and nothing is stored.
        use_cache: Disable to force recomputation (results are still
            stored unless the spec is uncacheable).  Points that are
            physically identical within one call are computed once
            either way.

    Returns:
        A :class:`SuiteResult` with results in input order plus cache
        accounting.

    Raises:
        SuiteError: If any point fails.  Completed sibling points are
            stored first whenever the cache is usable (see the error's
            ``stored`` count), so a re-run after fixing the cause
            recomputes only the failed and uncacheable points.
    """
    started = time.perf_counter()
    if isinstance(suite, SweepSpec):
        specs = list(suite.experiments())
    else:
        suite = list(suite)
        if suite and isinstance(suite[0], SweepSpec):
            specs = list(expand(suite))
        else:
            specs = list(suite)  # type: ignore[arg-type]

    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    try:
        cache: ResultCache | None = ResultCache(cache_dir)
    except OSError:
        cache = None  # unwritable cache location: run everything live

    results: list[ExperimentResult | None] = [None] * len(specs)
    # Points sharing a content hash are computed once per call;
    # repeats of an already-grouped key count as cache hits below.
    pending: dict[object, list[tuple[int, ExperimentSpec]]] = {}
    hits = 0
    for index, spec in enumerate(specs):
        # Hash once per point; the same key serves lookup, in-call
        # dedup grouping, and the store after computation.
        key: object = spec_key(spec)
        if use_cache and cache and key is not None:
            cached = cache.load(spec, key=key)
            if cached is not None:
                results[index] = cached
                hits += 1
                continue
        if key is None:
            key = ("uncacheable", index)  # no content hash: never dedupe
        pending.setdefault(key, []).append((index, spec))

    groups = list(pending.items())
    computed = parallel_map(
        _run_checked,
        [group[0][1] for _, group in groups],
        processes=processes,
    )

    misses = 0
    uncacheable = 0
    stored_count = 0
    failures: list[str] = []
    for (key, group), outcome in zip(groups, computed):
        _, first_spec = group[0]
        if isinstance(outcome, str):
            # The point failed; siblings keep their results (and their
            # cache entries), so a re-run recomputes only this point.
            failures.append(outcome)
            continue
        # Uncacheable groups carry a sentinel tuple key (built above);
        # cacheable ones carry their content hash.
        if isinstance(key, tuple):
            uncacheable += 1
        else:
            misses += 1
            if cache is not None:
                try:
                    if cache.store(first_spec, outcome, key=key):
                        stored_count += 1
                except OSError:
                    cache = None  # went unwritable mid-run: keep results
        for position, (index, spec) in enumerate(group):
            if position == 0:
                results[index] = outcome
            else:
                results[index] = replace(outcome, spec=spec)
                hits += 1

    if failures:
        raise SuiteError(failures, stored=stored_count)
    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # every index is a hit or in exactly one pending group
        raise RuntimeError(f"run_suite lost results for indices {missing}")
    return SuiteResult(
        specs=specs,
        results=results,  # type: ignore[arg-type]
        cache_hits=hits,
        cache_misses=misses,
        uncacheable=uncacheable,
        wall_seconds=time.perf_counter() - started,
    )
