"""Exploration driver: presets, pool fan-out, result-pipeline glue.

:func:`explore` searches one :class:`~repro.explore.executor.ExploreSpec`
with its configured strategy — one sequential search, whose result
depends on the spec alone — shrinks every violating schedule it finds
and verifies the shrunk repro replays to the same verdict.
:func:`explore_many` spreads several specs over the persistent worker
pool (:func:`repro.harness.runner.parallel_map`), one spec per worker,
so the pool size changes wall time and never an answer.

Outcomes flow into the existing results pipeline through
:func:`outcomes_result_set`, so ``render_resultset`` gives the CLI its
table/CSV/JSON for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError
from repro.explore.executor import ExploreSpec, ScheduleExecutor, Violation
from repro.explore.shrink import shrink
from repro.explore.strategies import STRATEGIES, run_strategy
from repro.stack import layers
from repro.stack.builder import StackSpec


@dataclass
class ExploreOutcome:
    """Everything one exploration produced."""

    spec: ExploreSpec
    violations: tuple[Violation, ...]      #: shrunk, replay-verified
    raw_violations: tuple[Violation, ...]  #: as first found by the search
    schedules: int
    pruned: int
    shrink_runs: int
    exhausted: bool
    wall_seconds: float

    @property
    def ok(self) -> bool:
        """True when the bounded search found no violation."""
        return not self.violations

    def row(self) -> dict:
        """Flat summary row (one line of the explore ResultSet)."""
        first = self.violations[0] if self.violations else None
        stack = self.spec.stack
        return {
            "stack": self.spec.label,
            "abcast": stack.abcast,
            "consensus": stack.consensus,
            "rb": stack.rb,
            "fd": stack.fd,
            "n": stack.n,
            "strategy": self.spec.strategy,
            "schedules": self.schedules,
            "pruned": self.pruned,
            "exhausted": self.exhausted,
            "violations": len(self.violations),
            "property": first.prop if first else "",
            "repro": first.repro if first else "",
            "wall_seconds": round(self.wall_seconds, 3),
        }

    def summary(self) -> str:
        verdict = (
            "no violation"
            if self.ok
            else f"{len(self.violations)} violation(s), "
                 f"e.g. {self.violations[0].describe()}"
        )
        return (
            f"{self.spec.label}: {self.schedules} schedules "
            f"({self.pruned} pruned, "
            f"{'exhausted' if self.exhausted else 'budget-bounded'}) -> "
            f"{verdict} [{self.wall_seconds:.1f}s]"
        )


def explore(spec: ExploreSpec) -> ExploreOutcome:
    """Search ``spec``'s schedule space; shrink and verify what it finds.

    Every reported violation's schedule has been minimised with
    :func:`repro.explore.shrink.shrink` and re-executed: the repro
    string in the outcome replays — deterministically, via
    :func:`repro.explore.executor.replay` — to a full trace on which
    the checkers report the same property violation.
    """
    started = time.perf_counter()
    result = run_strategy(spec)

    executor = ScheduleExecutor(spec)
    shrink_runs = 0
    shrunk: list[Violation] = []
    seen: set[tuple[str, str]] = set()
    for violation in result.violations:
        minimised = shrink(executor, violation)
        shrink_runs += minimised.runs
        violation = minimised.violation
        key = (violation.prop, violation.repro)
        if key not in seen:
            seen.add(key)
            shrunk.append(violation)
    return ExploreOutcome(
        spec=spec,
        violations=tuple(shrunk),
        raw_violations=tuple(result.violations),
        schedules=result.schedules,
        pruned=result.pruned,
        shrink_runs=shrink_runs,
        exhausted=result.exhausted,
        wall_seconds=time.perf_counter() - started,
    )


def explore_many(
    specs: list[ExploreSpec] | tuple[ExploreSpec, ...],
    *,
    jobs: int | None = None,
) -> list[ExploreOutcome]:
    """:func:`explore` each spec, one spec per pool worker.

    Each outcome equals a serial :func:`explore` of its spec; a single
    spec runs in-process.
    """
    from repro.harness.runner import parallel_map

    return parallel_map(explore, list(specs), processes=jobs)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

#: CLI-friendly stack aliases (see :func:`explore_spec`).
PRESETS: dict[str, dict] = {
    "faulty": dict(abcast="faulty-ids", consensus="ct", rb="sender"),
    "indirect": dict(abcast="indirect", consensus="ct-indirect", rb="sender"),
    "urb": dict(abcast="urb-ids", consensus="ct", rb="flood"),
    "on-messages": dict(abcast="on-messages", consensus="ct", rb="sender"),
    "sequencer": dict(abcast="sequencer", consensus="none", rb="flood"),
}


def stack_layers(stack: str) -> dict:
    """The :class:`StackSpec` layer kwargs a stack name stands for.

    ``stack`` is a preset name (``"faulty"``, ``"indirect"``, ...) or
    an explicit ``abcast/consensus[/rb[/fd]]`` path; a path without an
    rb part takes ``rb="sender"``, as the presets do, and ``fd`` is in
    the result only when the path names it.
    """
    if "/" not in stack:
        preset = PRESETS.get(stack)
        if preset is None:
            raise ConfigurationError(
                f"unknown stack {stack!r} (presets: "
                f"{', '.join(sorted(PRESETS))}; or an "
                f"abcast/consensus[/rb[/fd]] path)"
            )
        return dict(preset)
    parts = stack.split("/")
    if len(parts) > 4:
        raise ConfigurationError(
            f"stack path {stack!r} must be abcast/consensus[/rb[/fd]]"
        )
    layer_kwargs = dict(zip(("abcast", "consensus", "rb", "fd"), parts))
    layer_kwargs.setdefault("rb", "sender")
    return layer_kwargs


def explore_spec(
    stack: str = "faulty",
    *,
    n: int = 3,
    fd: str = "oracle",
    seed: int = 0,
    **overrides,
) -> ExploreSpec:
    """Build an :class:`ExploreSpec` from a preset or a layer path.

    ``stack`` is read by :func:`stack_layers`; an fd the path names
    overrides ``fd``.  The stack runs on the constant-latency network
    with ``drop_in_flight_on_crash=True`` — the Section 2.2 failure
    model, and the configuration that gives the scheduler ties to
    reorder and data frames whose loss a crash can make permanent.  ``overrides`` set :class:`ExploreSpec` fields
    (``budget``, ``strategy``, ``horizon``, ...).
    """
    stack_spec = StackSpec(
        n=n,
        network="constant",
        drop_in_flight_on_crash=True,
        seed=seed,
        **{"fd": fd, **stack_layers(stack)},
    )
    overrides.setdefault("seed", seed)
    return ExploreSpec(name=stack, stack=stack_spec, **overrides)


def registry_explore_specs(
    n: int = 3,
    fds: tuple[str, ...] = ("oracle",),
    **overrides,
) -> tuple[ExploreSpec, ...]:
    """One :class:`ExploreSpec` per allowed registry combination.

    Walks :func:`repro.stack.layers.compatible_combinations` — every
    registered ``(abcast, consensus, rb, fd)`` the compatibility
    constraints allow, restricted to ``fds`` — so an exploration smoke
    matrix automatically covers newly registered stacks.  The unsafe
    ``faulty-ids`` baseline is *included*: its violations are the
    positive control of the matrix.
    """
    specs = []
    for abcast, consensus, rb, fd in layers.compatible_combinations():
        if fd not in fds:
            continue
        label = f"{abcast}/{consensus}"
        if not layers.ABCASTS.get(abcast)["rb_override"] and consensus != "none":
            label += f"/{rb}"
        if len(fds) > 1:
            label += f"/{fd}"
        stack = StackSpec(
            n=n,
            abcast=abcast,
            consensus=consensus,
            rb=rb,
            fd=fd,
            network="constant",
            drop_in_flight_on_crash=True,
        )
        specs.append(ExploreSpec(name=label, stack=stack, **overrides))
    return tuple(specs)


# ----------------------------------------------------------------------
# Results pipeline
# ----------------------------------------------------------------------

#: Column order of the explore ResultSet.
RESULT_COLUMNS = (
    "stack",
    "abcast",
    "consensus",
    "rb",
    "fd",
    "n",
    "strategy",
    "schedules",
    "pruned",
    "exhausted",
    "violations",
    "property",
    "repro",
    "wall_seconds",
)


def outcomes_result_set(outcomes):
    """Exploration outcomes as a columnar
    :class:`~repro.harness.results.ResultSet` (render/CSV/JSON ready)."""
    from repro.harness.results import ResultSet

    rows = [outcome.row() for outcome in outcomes]
    return ResultSet(
        {key: [row[key] for row in rows] for key in RESULT_COLUMNS}
    )
