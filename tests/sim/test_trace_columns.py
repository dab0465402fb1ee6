"""A full trace kept as columns reads exactly like the event list it was.

:class:`~repro.sim.trace.Trace` keeps one row per event in parallel
columns and builds event objects only for its sinks and its readers.
For every n = 3 registry stack, crash-free and with p1 (the first
coordinator and sequencer) crashing, a run recorded into a ``Trace``
with one subscribed sink is read back four ways:

* the sink saw exactly ``list(trace.events)``: the same classes, fields
  (``repr`` tells ``uniform=True`` from ``1``) and order;
* every accessor equals its list-comprehension reference over that
  list, and so do indexing and slicing the view;
* ``holders_at`` equals the checkers' per-process reference at every
  instance's first decision, with and without crashed holders;
* replaying the sink's events through the generic ``record`` rebuilds
  the same trace.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    DecideEvent,
    ProposeEvent,
    RBroadcastEvent,
    RDeliverEvent,
)
from repro.failure.crash import CrashSchedule
from repro.sim.trace import Trace
from repro.stack.builder import StackSpec, build_system
from repro.stack.layers import compatible_combinations
from repro.workload.generators import SymmetricWorkload
from tests.checkers.test_checker_violations import reference_holders_at

PIDS = (1, 2, 3)

STACKS = {
    f"{abcast}/{consensus}/{rb}/{fd}": StackSpec(
        n=3, abcast=abcast, consensus=consensus, rb=rb, fd=fd,
        network="constant", seed=7,
    )
    for abcast, consensus, rb, fd in compatible_combinations()
}


def recorded(name: str, crash: bool) -> tuple[Trace, list]:
    """A run of ``STACKS[name]`` into a ``Trace`` and what its one sink saw."""
    seen: list = []
    crashes = CrashSchedule.single(1, 0.03) if crash else CrashSchedule.none()
    # MR tolerates no crash at n = 3; its run still records one.
    stack = replace(STACKS[name], enforce_resilience=False)
    system = build_system(stack, crashes, trace=Trace([seen.append]))
    SymmetricWorkload(system, throughput=300.0, payload_size=32,
                      duration=0.1).install()
    system.run(until=0.5)
    system.close()
    return system.trace, seen


def of(events: list, cls: type, process: int | None = None) -> list:
    return [
        e for e in events
        if type(e) is cls and (process is None or e.process == process)
    ]


@pytest.mark.parametrize("crash", [False, True], ids=["clean", "p1-crashed"])
@pytest.mark.parametrize("name", sorted(STACKS))
def test_columns_read_back_as_the_recorded_events(name, crash):
    trace, seen = recorded(name, crash)
    events = list(trace.events)
    assert len(trace) == len(events) == len(seen) > 0
    assert events == seen and trace.events == seen
    assert [(type(e), repr(e)) for e in events] == [
        (type(e), repr(e)) for e in seen
    ]
    assert trace.events[-1] == seen[-1] and trace.events[0] == seen[0]
    assert trace.events[3:40:3] == seen[3:40:3]
    assert trace.events[::-7] == seen[::-7]
    assert (trace.crash_time(1) is not None) == crash

    # Every accessor against its reference over the list.
    assert trace.abroadcasts() == of(events, ABroadcastEvent)
    assert trace.rbroadcasts() == of(events, RBroadcastEvent)
    for process in (None, *PIDS):
        assert trace.adeliveries(process) == of(events, ADeliverEvent, process)
        assert trace.rdeliveries(process) == of(events, RDeliverEvent, process)
    for process in PIDS:
        assert trace.adelivery_sequence(process) == [
            e.message.mid for e in of(events, ADeliverEvent, process)
        ]
    decides = of(events, DecideEvent)
    proposals = of(events, ProposeEvent)
    assert trace.decides() == decides and trace.proposals() == proposals
    instances = sorted({e.instance for e in decides})
    assert trace.instances() == instances
    first = {}
    for event in sorted(decides, key=lambda e: (e.time, e.process)):
        first.setdefault(event.instance, event)
    assert trace.first_decisions() == {k: first[k] for k in instances}
    for k in instances:
        assert trace.decides(k) == [e for e in decides if e.instance == k]
        assert trace.proposals(k) == [e for e in proposals if e.instance == k]
        assert trace.first_decision(k) == first[k]
    assert list(trace.rows(DecideEvent, ProposeEvent)) == [
        (type(e), e.time, e.process, e.value, e.instance)
        for e in events if type(e) in (DecideEvent, ProposeEvent)
    ]

    # holders_at against the per-process reference.
    for k in instances:
        for include_crashed in (False, True):
            assert trace.holders_at(
                first[k].value, first[k].time, include_crashed
            ) == reference_holders_at(
                trace, first[k].value, first[k].time, include_crashed
            )

    # The generic entry rebuilds the same trace.
    again = Trace()
    for event in seen:
        again.record(event)
    assert again.events == trace.events
    assert again._columns == trace._columns
    assert again.crashes() == trace.crashes()


def test_an_empty_trace_reads_as_an_empty_list():
    trace = Trace()
    assert trace.events == [] and list(trace.events) == []
    assert len(trace.events) == len(trace) == 0
    assert trace.events[:] == [] and trace.first_decisions() == {}
    with pytest.raises(IndexError):
        trace.events[0]
