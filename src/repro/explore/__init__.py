"""Systematic schedule exploration: bounded model checking of stacks.

The subsystem turns the trace checkers from post-hoc validators into a
bug-finding engine.  A :class:`~repro.explore.scheduler.ExploreScheduler`
takes over the engine's nondeterminism through the decision-point seam
of :mod:`repro.sim.engine` — delivery interleaving at same-time ties,
message-delay placement (defers), crash placement — and the strategies
in :mod:`repro.explore.strategies` drive bounded systematic search over
the resulting schedule space of any registry-composed stack.  Violating
schedules are minimised by :mod:`repro.explore.shrink` and replay
deterministically into a full :class:`~repro.sim.trace.Trace`, so every
existing checker and analysis tool works on the counterexample
unchanged.

Entry points:

* :func:`~repro.explore.runner.explore` — search one
  :class:`~repro.explore.executor.ExploreSpec` (one sequential
  search); :func:`~repro.explore.runner.explore_many` spreads several
  specs over a multiprocessing pool, one spec per worker;
* :func:`~repro.explore.runner.explore_spec` /
  :func:`~repro.explore.runner.registry_explore_specs` — stack presets
  (``"faulty"`` is the Section 2.2 stack);
* ``python -m repro.harness explore`` — the CLI verb.
"""

from repro.explore.executor import (
    ExploreSpec,
    RunRecord,
    ScheduleExecutor,
    Violation,
    replay,
)
from repro.explore.runner import (
    ExploreOutcome,
    explore,
    explore_many,
    explore_spec,
    outcomes_result_set,
    registry_explore_specs,
)
from repro.explore.scheduler import (
    Deviation,
    ExploreScheduler,
    Menu,
    format_deviations,
    parse_deviations,
)
from repro.explore.shrink import ShrinkResult, shrink
from repro.explore.strategies import STRATEGIES

__all__ = [
    "Deviation",
    "ExploreOutcome",
    "ExploreScheduler",
    "ExploreSpec",
    "Menu",
    "RunRecord",
    "STRATEGIES",
    "ScheduleExecutor",
    "ShrinkResult",
    "Violation",
    "explore",
    "explore_many",
    "explore_spec",
    "format_deviations",
    "outcomes_result_set",
    "parse_deviations",
    "registry_explore_specs",
    "shrink",
]
