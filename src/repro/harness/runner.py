"""Parallel suite execution with a content-addressed result cache.

:func:`run_suite` takes a :class:`~repro.harness.suite.SweepSpec` (or a
flat list of :class:`~repro.harness.experiment.ExperimentSpec`) and:

1. looks each point up in an on-disk cache keyed by a stable hash of
   the spec's *physical* content (everything except the display name),
   so re-running a figure only computes missing points — and two
   figures that share a configuration share the cached result;
2. fans the missing points out over a process pool (specs
   and results are frozen dataclasses of primitives — including the
   declarative fault rules and topologies, which is why crafted fault
   scenarios parallelise), falling back to in-process execution for
   anything that cannot cross a process boundary;
3. stores the computed results atomically and returns everything in
   input order.

With ``use_cache=False`` steps 1 and 3 are skipped: no cache is read,
written or created, so such a run never loads ``pickle`` unless its
pool does.

Determinism: ``run_experiment`` is a pure function of its spec (all
randomness flows from the seeded RNG registry), so a point computed in
a worker process is bit-for-bit identical to one computed serially —
asserted in ``tests/harness/test_runner.py``.  Only the wall-clock
``wall_seconds`` diagnostic differs between runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.exceptions import ConfigurationError
from repro.harness.experiment import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.harness.suite import SweepSpec, expand


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


def spec_key(spec: ExperimentSpec) -> str:
    """Stable content hash of a spec.

    The hash covers every field that influences the simulation —
    ``name`` and ``label`` are excluded, they are presentation only —
    plus
    :data:`CACHE_VERSION` and the :func:`_code_fingerprint` of the
    installed ``repro`` sources.  Declarative fault rules and
    topologies are dataclasses of primitives, so fault scenarios hash
    (and cache) like any other spec; changing a single rule changes
    the key.

    Raises:
        ConfigurationError: If a field does not serialise to JSON, so
            the spec has no stable content hash.
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
    except TypeError as exc:
        raise ConfigurationError(
            f"spec {spec.name!r} has no content hash: {exc}"
        ) from None
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Content-addressed pickle store of experiment results."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec: ExperimentSpec, key: str | None = None) -> Path:
        """Cache path for ``spec`` (pass a precomputed ``key`` to avoid
        re-hashing the spec)."""
        if key is None:
            key = spec_key(spec)
        return self.root / f"{key}.pkl"

    def load(
        self, spec: ExperimentSpec, key: str | None = None
    ) -> ExperimentResult | None:
        """Return the cached result for ``spec``, or ``None`` on a miss.

        The stored spec's display name may differ from ``spec.name``
        (the hash ignores names); the returned result carries the
        caller's spec so reports label points correctly.
        """
        # Imported here (and in ``store`` and ``_pickles``): a serial,
        # uncached run never loads ``pickle``.
        import pickle

        try:
            with self.path_for(spec, key).open("rb") as fh:
                result: ExperimentResult = pickle.load(fh)
            if not isinstance(result, ExperimentResult):
                # A foreign pickle: ignore cleanly, never hand a
                # mis-shaped object downstream.
                return None
            return replace(result, spec=spec)
        except Exception:
            # Missing, corrupt or stale entry (truncated write, a pickle
            # referencing since-renamed classes, or an old result
            # schema that fails re-validation): recompute and overwrite.
            return None

    def store(
        self,
        spec: ExperimentSpec,
        result: ExperimentResult,
        key: str | None = None,
    ) -> None:
        """Persist ``result`` under ``spec``'s key (atomic)."""
        import pickle

        path = self.path_for(spec, key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Parallel map
# ----------------------------------------------------------------------


def _pickles(obj: object) -> bool:
    """Whether ``obj`` can cross a process boundary."""
    import pickle

    try:
        pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    except Exception:
        return False
    return True


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    processes: int | None = None,
) -> list[_R]:
    """``[fn(x) for x in items]`` across a process pool, order preserved.

    Each call opens its own :class:`~concurrent.futures.ProcessPoolExecutor`
    (platform-default start method) and shuts it down before returning,
    so no worker outlives the call, and fork-started workers see every
    layer and probe registered so far.  Chunks are sized to a few per
    worker (``len(items) / (4 · workers)``, floor 1), so dynamic load
    imbalance stays bounded without paying per-item dispatch.  A worker
    that dies mid-call (killed, ``os._exit``, or a spawn worker that
    cannot re-import ``__main__``) raises ``BrokenProcessPool`` instead
    of hanging the call.  Under spawn, custom metric probes must be
    registered at import time of a module the workers re-import.

    Serial fallback when a pool cannot help (one item, one worker) or
    cannot work (``fn`` does not pickle, called inside a worker, no
    pool can start); items that do not pickle run in-process while the
    rest still pool.  Used by :func:`run_suite` and directly by
    scenario scripts that fan out whole staged runs
    (``examples/faulty_vs_indirect.py``).
    """
    items = list(items)
    workers = processes if processes is not None else os.cpu_count() or 1
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here: it pulls in ``socket``, which serial runs skip.
    import multiprocessing

    if (
        multiprocessing.parent_process() is not None  # no nested pools
        or not _pickles(fn)
    ):
        return [fn(item) for item in items]
    # Imported here: it pulls in ``logging``, which serial runs skip.
    from concurrent.futures import ProcessPoolExecutor

    poolable = [i for i, item in enumerate(items) if _pickles(item)]
    pool = None
    if len(poolable) > 1:
        try:
            pool = ProcessPoolExecutor(min(workers, len(poolable)))
        except (OSError, ImportError, NotImplementedError):
            pass  # no pool can start here (e.g. no working semaphores)
    if pool is None:
        return [fn(item) for item in items]
    with pool:
        mapped = list(pool.map(
            fn,
            [items[i] for i in poolable],
            chunksize=max(1, len(poolable) // (4 * workers)),
        ))
    pooled = dict(zip(poolable, mapped))
    return [
        pooled[index] if index in pooled else fn(item)
        for index, item in enumerate(items)
    ]


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
    points actually computed (and stored when possible).  The two
    always sum to ``len(self)``.
    """

    specs: list[ExperimentSpec]
    results: list[ExperimentResult]
    cache_hits: int
    cache_misses: int
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
        use_cache: Disable to recompute every point without touching
            the cache: nothing is read or written (``cache_dir`` is not
            even created).  Points that are physically identical within
            one call are computed once either way.

    Returns:
        A :class:`SuiteResult` with results in input order plus cache
        accounting.

    Raises:
        SuiteError: If any point fails.  Completed sibling points are
            stored first whenever the cache is usable (see the error's
            ``stored`` count), so a re-run after fixing the cause
            recomputes only the failed points.
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

    cache: ResultCache | None = None
    if use_cache:
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        try:
            cache = ResultCache(cache_dir)
        except OSError:
            pass  # unwritable cache location: run everything live

    results: list[ExperimentResult | None] = [None] * len(specs)
    # Points sharing a content hash are computed once per call;
    # repeats of an already-grouped key count as cache hits below.
    pending: dict[str, list[tuple[int, ExperimentSpec]]] = {}
    hits = 0
    for index, spec in enumerate(specs):
        # Hash once per point; the same key serves lookup, in-call
        # dedup grouping, and the store after computation.
        key = spec_key(spec)
        if cache is not None:
            cached = cache.load(spec, key=key)
            if cached is not None:
                results[index] = cached
                hits += 1
                continue
        pending.setdefault(key, []).append((index, spec))

    groups = list(pending.items())
    computed = parallel_map(
        _run_checked,
        [group[0][1] for _, group in groups],
        processes=processes,
    )

    misses = 0
    stored_count = 0
    failures: list[str] = []
    for (key, group), outcome in zip(groups, computed):
        _, first_spec = group[0]
        if isinstance(outcome, str):
            # The point failed; siblings keep their results (and their
            # cache entries), so a re-run recomputes only this point.
            failures.append(outcome)
            continue
        misses += 1
        if cache is not None:
            try:
                cache.store(first_spec, outcome, key=key)
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
        wall_seconds=time.perf_counter() - started,
    )
