"""Tests for the trace observers and their derived queries."""

import repro
from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    CrashEvent,
    DecideEvent,
    ProposeEvent,
    RDeliverEvent,
)
from repro.core.identifiers import MessageId
from repro.core.message import AppMessage, make_payload
from repro.net.setups import SETUP_1
from repro.sim.trace import SHARE_TABLE_SIZE, CountingTrace, Trace, TraceObserver
from repro.stack.builder import StackSpec


def msg(origin, seq):
    return AppMessage(mid=MessageId(origin, seq), payload=make_payload(1))


class TestTraceIndexing:
    def test_adelivery_sequence_preserves_order(self):
        trace = Trace()
        trace.record(ADeliverEvent(time=0.1, process=1, message=msg(1, 1)))
        trace.record(ADeliverEvent(time=0.2, process=1, message=msg(2, 1)))
        trace.record(ADeliverEvent(time=0.15, process=2, message=msg(1, 1)))
        assert trace.adelivery_sequence(1) == [MessageId(1, 1), MessageId(2, 1)]
        assert trace.adelivery_sequence(2) == [MessageId(1, 1)]

    def test_abroadcasts_and_decides(self):
        trace = Trace()
        trace.record(ABroadcastEvent(time=0.0, process=1, message=msg(1, 1)))
        trace.record(ProposeEvent(time=0.1, process=1, instance=1,
                                  value=frozenset({MessageId(1, 1)})))
        trace.record(DecideEvent(time=0.2, process=1, instance=1,
                                 value=frozenset({MessageId(1, 1)})))
        trace.record(DecideEvent(time=0.3, process=2, instance=1,
                                 value=frozenset({MessageId(1, 1)})))
        assert len(trace.abroadcasts()) == 1
        assert trace.instances() == [1]
        assert len(trace.decides(1)) == 2
        assert trace.first_decision(1).process == 1

    def test_first_decision_of_unknown_instance_is_none(self):
        assert Trace().first_decision(7) is None

    def test_correct_processes_excludes_crashed(self):
        trace = Trace()
        trace.record(CrashEvent(time=0.5, process=2))
        assert trace.correct_processes((1, 2, 3)) == {1, 3}
        assert trace.crash_time(2) == 0.5
        assert trace.crash_time(1) is None


class TestHoldersAt:
    def test_holders_require_all_ids_by_time(self):
        trace = Trace()
        trace.record(RDeliverEvent(time=0.1, process=1, message=msg(1, 1)))
        trace.record(RDeliverEvent(time=0.3, process=1, message=msg(2, 1)))
        trace.record(RDeliverEvent(time=0.2, process=2, message=msg(1, 1)))
        both = frozenset({MessageId(1, 1), MessageId(2, 1)})
        assert trace.holders_at(both, 0.2) == frozenset()
        assert trace.holders_at(both, 0.3) == {1}
        assert trace.holders_at(frozenset({MessageId(1, 1)}), 0.25) == {1, 2}

    def test_crashed_holders_do_not_count(self):
        """v-stability counts *live* copies: a crashed process's copy is
        lost with it."""
        trace = Trace()
        trace.record(RDeliverEvent(time=0.1, process=1, message=msg(1, 1)))
        trace.record(CrashEvent(time=0.2, process=1))
        ids = frozenset({MessageId(1, 1)})
        assert trace.holders_at(ids, 0.15) == {1}
        assert trace.holders_at(ids, 0.25) == frozenset()

    def test_empty_id_set_held_by_all_deliverers(self):
        trace = Trace()
        trace.record(RDeliverEvent(time=0.1, process=4, message=msg(1, 1)))
        assert trace.holders_at(frozenset(), 0.0) == {4}

    def test_reads_leave_the_indexes_untouched(self):
        """Reading a process or instance that recorded nothing must not
        create it: ``holders_at`` iterates the r-delivery index, so a
        key inserted by an earlier read would become a phantom holder
        of the empty set."""
        trace = Trace()
        trace.record(RDeliverEvent(time=0.1, process=4, message=msg(1, 1)))
        before = trace.holders_at(frozenset(), 0.0)
        assert trace.adeliveries(9) == []
        assert trace.adelivery_sequence(9) == []
        assert trace.rdeliveries(9) == []
        assert trace.proposals(9) == []
        assert trace.decides(9) == []
        assert trace.holders_at(frozenset(), 0.0) == before == {4}
        assert trace.holders_at(frozenset(), 0.0, include_crashed=True) == {4}
        assert trace.adeliveries() == [] and trace.proposals() == []
        assert trace.instances() == []

    def test_index_follows_deliveries_recorded_after_a_query(self):
        trace = Trace()
        ids = frozenset({MessageId(1, 1), MessageId(2, 1)})
        trace.record(RDeliverEvent(time=0.1, process=1, message=msg(1, 1)))
        assert trace.holders_at(ids, 1.0) == frozenset()
        trace.record(RDeliverEvent(time=0.3, process=1, message=msg(2, 1)))
        trace.record(RDeliverEvent(time=0.4, process=2, message=msg(2, 1)))
        # An out-of-order record (hand-built traces do this) still
        # counts from its own time, not from its position.
        trace.record(RDeliverEvent(time=0.2, process=2, message=msg(1, 1)))
        assert trace.holders_at(ids, 0.3) == {1}
        assert trace.holders_at(ids, 0.4) == {1, 2}


class TestCountingTrace:
    """The probe-era performance trace: counts and crashes only."""

    def test_is_a_trace_observer(self):
        assert isinstance(CountingTrace(), TraceObserver)

    def test_counts_without_retaining(self):
        trace = CountingTrace()
        for i in range(100):
            trace.record(
                RDeliverEvent(time=i * 1e-3, process=1, message=msg(1, i))
            )
        assert len(trace) == 100
        assert not hasattr(trace, "events")

    def test_tracks_crashes_for_correctness_queries(self):
        trace = CountingTrace()
        trace.record(CrashEvent(time=0.5, process=2))
        assert trace.crashes()[2].time == 0.5
        assert trace.correct_processes((1, 2, 3)) == {1, 3}
        assert trace.instances() == []


class TestSinks:
    """One ``record`` per event, fanned out to the subscribed sinks."""

    def events(self):
        return [
            ABroadcastEvent(time=0.0, process=1, message=msg(1, 1)),
            RDeliverEvent(time=0.1, process=2, message=msg(1, 1)),
            CrashEvent(time=0.2, process=3),
        ]

    def test_every_sink_sees_every_event_in_order(self):
        for trace_cls in (Trace, CountingTrace):
            seen = []
            trace = trace_cls((
                lambda e: seen.append(("a", e)),
                lambda e: seen.append(("b", e)),
            ))
            for event in self.events():
                trace.record(event)
            assert seen == [
                (sink, event) for event in self.events() for sink in "ab"
            ]
            assert len(trace) == 3
            assert trace.correct_processes((1, 2, 3)) == {1, 2}

    def test_no_sinks_by_default(self):
        for trace in (Trace(), CountingTrace()):
            assert isinstance(trace, TraceObserver)
            assert trace.sinks == ()


def ids(*seqs):
    """A fresh id set (a new object on every call)."""
    return frozenset(MessageId(1, seq) for seq in seqs)


class TestSharedValues:
    """A full trace holds one object per distinct consensus value."""

    def test_equal_values_from_different_processes_share_one_object(self):
        trace = Trace()
        first = trace.share(ids(1, 2))
        again = trace.share(ids(1, 2))
        assert again is first
        assert trace.share(ids(3)) is not first
        # In a run: every process proposes and decides its own copy.
        system = repro.build_system(
            StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                      params=SETUP_1, seed=0),
            trace=Trace(),
        )
        for seq in range(6):
            for pid in (1, 2, 3):
                system.processes[pid].schedule_at(
                    seq * 2e-3, system.abcasts[pid].abroadcast,
                    make_payload(64),
                )
        system.run(until=1.0)
        values = [
            e.value for e in system.trace.events
            if type(e) in (ProposeEvent, DecideEvent)
        ]
        assert len(values) > 2 * len(system.trace.instances()) > 0
        objects = {}
        for value in values:
            assert objects.setdefault(value, value) is value
        system.close()

    def test_the_table_stays_within_its_bound_on_a_long_run(self):
        trace = Trace()
        for seq in range(10 * SHARE_TABLE_SIZE):
            value = ids(seq)
            assert trace.share(value) is value
            assert trace.share(ids(seq)) is value
            assert len(trace._values) <= SHARE_TABLE_SIZE
        assert trace.events == []

    def test_counting_trace_returns_the_value_and_keeps_nothing(self):
        trace = CountingTrace()
        state = dict(vars(trace))
        for _ in range(3):
            value = ids(1, 2)
            assert trace.share(value) is value
        assert vars(trace) == state
        assert len(trace) == 0
