"""The crash-placement gate on the contention model, which no search
explores by default.

On the contention model every frame passes three FIFO stages (sender
CPU, medium, receiver CPU) before its delivery, and each stage's
completion is an event.  An event involves both endpoints of the frame
it carries, so a crash of the sender can be placed right after its
frame clears the medium — where ``ContentionNetwork._enter_receiver``
reads the sender's crash state.  Deliveries queued on a receiver CPU
are bare stage entries, not link deliveries, so nothing is deferrable.

``PINNED`` is the ``crashable`` set of every menu of the default
schedule of one n = 3 registry stack moved to the contention model,
recorded eagerly at commit 43a0fc0, when a medium completion involved
nobody and a CPU completion only that CPU's process (one entry per
step, digits are pids, ``-`` is the empty set).
"""

from dataclasses import replace

import pytest

from repro.explore import executor as executor_mod
from repro.explore import explore, registry_explore_specs
from repro.explore.executor import ScheduleExecutor
from repro.explore.scheduler import ExploreScheduler
from repro.sim.engine import FIRE
from repro.sim.equeue import ARGS, FN

PINNED = """
123 1 2 2 1 - - 2 1 - 2 1 - 3 2 - 3 1 - 2 - 1 - 3 - 2 1 3 2 3 2 3 2
3 - 2 - 3 1 - 3 2 1 - 3 1 2 - 3 2 - 3 1 3 1 3 - 1 - 3 - 1 2 - 3 2 1
3 1 2 - 3 - 1 2 - 3 - 1 2 - - 1 2 3 - 1 2 3 - 1 2 1 2 - 2 1 3 - 2 1
- 3 - 2 3 2 3 2 3 - 2 - 3 1 - 2 3 1 2 - 3 1 - 2 3 1 2 - 3 1 - 2 - 3
- 1 - 2 3 - 1 3 2 1
""".split()


def _contention_spec(**overrides):
    (spec,) = [
        s for s in registry_explore_specs(n=3)
        if s.name == "indirect/ct-indirect/sender"
    ]
    return replace(
        spec, stack=replace(spec.stack, network="contention"), **overrides
    )


class Logged(ExploreScheduler):
    """Keeps what fired at each step (consulted at every step while it
    records from step 0)."""

    last = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired = []
        Logged.last = self

    def decide(self, now, ready):
        op, index = super().decide(now, ready)
        if op == FIRE:
            self.fired.append(ready[index])
        return op, index


@pytest.fixture
def default_run(monkeypatch):
    monkeypatch.setattr(executor_mod, "ExploreScheduler", Logged)
    record = ScheduleExecutor(_contention_spec()).run(())
    return record, Logged.last


def test_every_crash_placement_of_the_pinned_gate_is_kept(default_run):
    record, _ = default_run
    assert record.drained and record.violation is None
    assert len(record.menus) == record.steps == len(PINNED)
    for menu, pinned in zip(record.menus, PINNED):
        kept = set() if pinned == "-" else {int(pid) for pid in pinned}
        assert kept <= set(menu.crashable), (menu.step, pinned)


def test_the_sender_may_crash_right_after_its_frame_clears_the_medium(
    default_run,
):
    record, scheduler = default_run
    assert len(scheduler.fired) == record.steps
    after_wire = scheduler.system.network._enter_receiver
    added = [
        menu.step
        for menu, before, pinned in zip(
            record.menus[1:], scheduler.fired, PINNED[1:]
        )
        if before[FN] == after_wire
        and before[ARGS][0].src in menu.crashable
        and str(before[ARGS][0].src) not in pinned
    ]
    assert added


def test_no_delivery_is_deferrable(default_run):
    record, _ = default_run
    assert all(menu.deferrable == () for menu in record.menus)


def test_a_small_search_keeps_the_verdict():
    outcome = explore(_contention_spec(budget=60, stop_after=0))
    assert outcome.schedules == 60
    assert outcome.violations == ()
