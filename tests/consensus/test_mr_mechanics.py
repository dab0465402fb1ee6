"""Fine-grained tests of the MR round machinery (original and indirect)."""

import pytest

from repro.consensus.base import ID_SET_CODEC
from repro.consensus.mostefaoui_raynal import BOTTOM, MostefaouiRaynalConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.core.events import RDeliverEvent
from repro.core.exceptions import ProtocolViolationError
from repro.core.identifiers import IdWatermark, MessageId
from repro.net.faults import DelayRule
from repro.core.rcv import ReceivedStore
from tests.helpers import Fabric, app_message, make_fabric


def mount(fabric: Fabric, cls):
    services, stores, decisions = {}, {}, {}
    for pid in fabric.config.processes:
        services[pid] = cls(
            fabric.transports[pid],
            fabric.config,
            fabric.detectors[pid],
            ID_SET_CODEC,
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


class TestEchoMechanics:
    def test_coordinator_echo_doubles_as_proposal(self):
        """MR Phase 1: the coordinator sends exactly one message per
        round — its echo — and that is what others react to."""
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in (1, 2, 3):
            services[pid].propose(1, value)
        fabric.run()
        # Per round 1: each of 3 processes echoes to all (3 frames each)
        # = 9 echo frames total for a round-1 decision.
        assert fabric.network.frames_sent.get("mr.echo", 0) == 9

    def test_suspicion_produces_bottom_echo(self):
        fabric = make_fabric(3, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        fabric.processes[2].crash()  # round-1 coordinator dead
        value = frozenset({MessageId(1, 1)})
        services[1].propose(1, value)
        services[3].propose(1, value)
        inst = services[1]._instances[1]
        # A decision retires the instance, so look while it is still
        # running: round 1's echoes at p1 include ⊥ values
        # (suspicion-driven).
        fabric.engine.run(
            until=10.0,
            stop_when=lambda: BOTTOM in inst.echoes.get(1, {}).values(),
        )
        assert not services[1].has_decided(1)
        assert BOTTOM in inst.echoes[1].values()
        fabric.run()
        assert decisions[1][1] == value  # later round decided

    def test_late_coordinator_echo_after_suspicion_still_counts(self):
        """p echoes ⊥ on suspicion; the coordinator's delayed echo must
        still enter the phase-2 tally (it is an echo like any other)."""
        from repro.failure.detector import FalseSuspicion
        fs = tuple(
            FalseSuspicion(observer=p, target=2, start=0.1e-3, end=50e-3)
            for p in (1, 3)
        )
        # §3.3.2 staging, declaratively: the coordinator's frames crawl
        # while everyone else's zip (first matching DelayRule wins).
        fabric = make_fabric(3, false_suspicions=fs,
                             faults=(DelayRule(src=2, delay=5e-3),
                                     DelayRule(delay=0.5e-3)),
                             network_kind="constant")
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        value = frozenset({MessageId(2, 1)})
        for pid in (1, 2, 3):
            services[pid].propose(1, value)
        fabric.run()
        # Everyone decides despite the early false suspicions.
        for pid in (1, 2, 3):
            assert decisions[pid][1] == value

    def test_echo_sent_once_per_round(self):
        fabric = make_fabric(4, f=1)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        value = frozenset({MessageId(1, 1)})
        for pid in fabric.config.processes:
            services[pid].propose(1, value)
        fabric.run()
        for pid in fabric.config.processes:
            # only round 1 was needed
            assert len(dict(services[pid].round_log.items())[1]) == 1
        # ... and in it every process echoed to all exactly once.
        assert fabric.network.frames_sent.get("mr.echo", 0) == 16

    def test_distinct_valid_echoes_in_a_round_raise_even_under_O(self):
        """Crash faults cannot make two valid echoes of one round differ;
        if they do, Phase 2 reports it as a violation (not an ``assert``,
        which ``python -O`` would strip)."""
        fabric = make_fabric(3)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        services[1].propose(1, frozenset({MessageId(1, 1)}))
        instance = services[1]._instances[1]
        # p2 coordinates round 1; p1 echoes its value, then a second
        # valid echo with another value completes the n - f = 2 quorum.
        instance.on_echo(1, 2, frozenset({MessageId(2, 1)}))
        with pytest.raises(
            ProtocolViolationError, match="distinct valid echoes in round 1"
        ):
            instance.on_echo(1, 3, frozenset({MessageId(3, 1)}))


class TestIndirectFilter:
    def test_bottom_echo_size_is_small(self):
        """A ⊥ echo must not be charged the value's wire size."""
        fabric = make_fabric(4, f=1)
        services, stores, decisions = mount(fabric, MRIndirectConsensus)
        big_value_ids = frozenset({MessageId(2, i) for i in range(1, 50)})
        a_msgs = [app_message(2, i) for i in range(1, 50)]
        for m in a_msgs:
            give(fabric, stores, 2, m)
        services[2].propose(1, big_value_ids, stores[2].rcv)
        for pid in (1, 3, 4):
            services[pid].propose(1, frozenset(), stores[pid].rcv)
        fabric.run(until=0.5)
        # ⊥ echoes (from p1/p3/p4) are tiny; the coordinator's echo is
        # ~50 ids.  Average echo bytes must sit far below the full size.
        echo_bytes = fabric.network.bytes_sent.get("mri.echo", 0)
        echo_frames = fabric.network.frames_sent.get("mri.echo", 0)
        assert echo_frames > 0
        full = 50 * 12
        assert echo_bytes / echo_frames < full

    def test_rcv_charge_counts_lookups(self):
        """The indirect MR filter must evaluate rcv (and charge for it)
        on every non-coordinator receipt of the proposal."""
        charges = []
        fabric = make_fabric(4, f=1)
        services, stores, decisions = mount(fabric, MRIndirectConsensus)
        for pid in fabric.config.processes:
            services[pid].charge_rcv = charges.append
        m = app_message(2)
        for pid in fabric.config.processes:
            give(fabric, stores, pid, m)
            services[pid].propose(1, ids(m), stores[pid].rcv)
        fabric.run()
        assert len(charges) >= 3  # the three non-coordinators filtered
        assert all(c == 1 for c in charges)  # one id per value
