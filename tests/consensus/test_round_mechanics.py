"""Fine-grained tests of the CT round machinery.

These pin the mechanics the proofs lean on: timestamp bookkeeping,
coordinator estimate selection, nack-driven round aborts, buffering of
early frames, decide-flood forwarding, and the estimate_c/estimate_p
separation of the indirect adaptation.
"""

import pytest

from repro.consensus.base import ID_SET_CODEC
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.core.events import RDeliverEvent
from repro.core.identifiers import IdWatermark, MessageId
from repro.net.faults import DelayRule
from repro.core.rcv import ReceivedStore
from tests.helpers import Fabric, app_message, make_fabric


def mount(fabric: Fabric, cls, **kwargs):
    services, stores, decisions = {}, {}, {}
    for pid in fabric.config.processes:
        services[pid] = cls(
            fabric.transports[pid],
            fabric.config,
            fabric.detectors[pid],
            ID_SET_CODEC,
            **kwargs,
        )
        stores[pid] = ReceivedStore(IdWatermark(fabric.config.n))
        decisions[pid] = {}
        services[pid].on_decide(
            lambda k, v, _pid=pid: decisions[_pid].setdefault(k, v)
        )
    return services, stores, decisions


def give(fabric, stores, pid, message):
    stores[pid].add(message)
    fabric.trace.record(
        RDeliverEvent(time=fabric.engine.now, process=pid, message=message)
    )


def ids(*messages):
    return frozenset(m.mid for m in messages)


class TestTimestampSelection:
    def test_highest_timestamp_estimate_wins_later_rounds(self):
        """A value adopted in round 1 (ts=1) must beat fresh ts=0
        estimates at the round-2 coordinator."""
        fabric = make_fabric(3, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        v2 = frozenset({MessageId(2, 1)})
        v_other = frozenset({MessageId(9, 9)})
        # Round 1 coordinator p2 proposes v2; everyone adopts (ts=1).
        # p2 then crashes before deciding; round 2 must still pick v2.
        services[1].propose(1, v_other)
        services[2].propose(1, v2)
        services[3].propose(1, v_other)
        # Crash p2 right after its proposal went out but before it can
        # gather acks (ack needs a network round trip >= 2ms).
        fabric.crash(2, at=2.5e-3)
        fabric.run()
        decided = decisions[1].get(1) or decisions[3].get(1)
        assert decided is not None
        # If p1/p3 adopted v2 in round 1, ts rules force v2 later; if the
        # crash beat the proposal, a ts=0 value wins.  Either way both
        # survivors agree:
        assert decisions[1].get(1) == decisions[3].get(1)

    def test_tie_break_is_deterministic_min_pid(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        # All ts equal 0 in round 1; coordinator proposes own estimate.
        # Force round 2 by making p2 crash pre-propose; coordinator p3
        # then selects among ts=0 estimates -> min pid (p1) wins.
        fabric.processes[2].crash()
        va = frozenset({MessageId(1, 1)})
        vb = frozenset({MessageId(3, 1)})
        services[1].propose(1, va)
        services[3].propose(1, vb)
        fabric.run()
        assert decisions[1][1] == va
        assert decisions[3][1] == va


class TestRoundAborts:
    def test_single_nack_aborts_the_round(self):
        """Indirect CT: one process missing msgs(v) nacks; the
        coordinator abandons the round even though a majority acked."""
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, CTIndirectConsensus)
        a = app_message(2)
        give(fabric, stores, 2, a)  # p1 and p3 lack msgs({a})
        b = app_message(1)
        for pid in (1, 2, 3):
            give(fabric, stores, pid, b)
        services[2].propose(1, ids(a), stores[2].rcv)
        services[1].propose(1, ids(b), stores[1].rcv)
        services[3].propose(1, ids(b), stores[3].rcv)
        fabric.run()
        # round 1 aborted on nacks
        assert len(dict(services[2].round_log.items())[1]) >= 2
        assert decisions[2][1] == ids(b)

    def test_nacks_recorded_per_round(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, CTIndirectConsensus)
        a = app_message(2)
        give(fabric, stores, 2, a)
        for pid in (1, 2, 3):
            services[pid].propose(
                1, ids(a) if pid == 2 else frozenset(), stores[pid].rcv
            )
        inst = services[2]._instances[1]
        # A decision retires the instance, so look while round 1 is
        # being aborted.
        fabric.engine.run(until=10.0, stop_when=lambda: bool(inst.nacks))
        assert not services[2].has_decided(1)
        assert 1 in inst.nacks and len(inst.nacks[1]) >= 1
        fabric.run()
        assert services[2].has_decided(1)


class TestBuffering:
    def test_frames_for_unproposed_instance_are_buffered(self):
        """p3 receives a proposal for an instance it hasn't started; it
        must not ack until its own propose, then proceed normally."""
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        value = frozenset({MessageId(1, 1)})
        services[1].propose(1, value)
        services[2].propose(1, value)
        # p3 proposes late, after the coordinator's proposal reached it.
        fabric.engine.schedule(20e-3, services[3].propose, 1, value)
        fabric.run()
        assert decisions[3][1] == value

    def test_stale_round_proposals_ignored(self):
        """A proposal for an old round must not overwrite the estimate a
        process carried into later rounds."""
        fabric = make_fabric(3, detection_delay=2e-3,
                             faults=(DelayRule(kind_prefix="ct.prop",
                                               delay=30e-3),
                                     DelayRule(delay=1e-3)))
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in (1, 2, 3):
            services[pid].propose(1, value)
        # p2's round-1 proposal is delayed 30ms; FD suspicion is NOT
        # triggered (p2 is alive), so everyone simply waits; eventually
        # the proposal lands and the instance completes in round 1.
        fabric.run()
        assert decisions[1][1] == value


class TestDecideFlood:
    def test_decide_forwarded_exactly_once_per_process(self):
        fabric = make_fabric(4)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in fabric.config.processes:
            services[pid].propose(1, value)
        fabric.run()
        # Coordinator sends n decide frames; each of the other n-1
        # processes forwards n-1: n + (n-1)(n-1) = 4 + 9 = 13... but the
        # coordinator also forwards on first self-receipt (n-1 more).
        total = fabric.network.frames_sent.get("ct.decide", 0)
        n = 4
        assert total == n + n * (n - 1)

    def test_late_decide_for_stopped_instance_is_harmless(self):
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, ChandraTouegConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in (1, 2, 3):
            services[pid].propose(1, value)
        fabric.run()
        # Decisions arrived everywhere exactly once despite n+n(n-1)
        # decide frames in flight.
        for pid in (1, 2, 3):
            assert list(decisions[pid]) == [1]


class TestEstimateSeparation:
    def test_coordinator_does_not_adopt_unbacked_selection(self):
        """Algorithm 2's estimate_c vs estimate_p: the round-2
        coordinator relays the highest-ts estimate but keeps its own
        estimate unless rcv passes."""
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, CTIndirectConsensus)
        a = app_message(2)
        give(fabric, stores, 2, a)  # only p2 holds msgs({a})
        b = app_message(3)
        for pid in (1, 2, 3):
            give(fabric, stores, pid, b)
        services[2].propose(1, ids(a), stores[2].rcv)
        services[1].propose(1, ids(b), stores[1].rcv)
        services[3].propose(1, ids(b), stores[3].rcv)
        # The decision retires the instance: hold on to it.
        inst3 = services[3]._instances[1]
        fabric.run()
        # p3 coordinates round 2.  Whatever it relayed, its own estimate
        # must never have become {a} (it lacks msgs({a})).
        assert inst3.estimate != ids(a)
        assert decisions[3][1] == ids(b)
