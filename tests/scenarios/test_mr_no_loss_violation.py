"""Section 3.3.2: why the MR adaptation cannot keep f < n/2.

The paper's argument is an indistinguishability pair: a non-coordinator
``p`` that suspects the coordinator and lacks ``msgs(v)`` receives one
valid echo ``v`` plus ``⌊(n-1)/2⌋`` ⊥ values, and cannot tell whether

* (1) the coordinator is correct and decided — so ``p`` MUST adopt
  ``v`` (else Uniform agreement breaks), or
* (2) the coordinator is faulty and nobody has ``msgs(v)`` — so ``p``
  MUST NOT adopt ``v`` (else No loss breaks).

These tests execute both horns against the *original* MR algorithm run
on identifiers, and then show Algorithm 3 dissolving the dilemma at the
price of ``f < n/3``.
"""

import pytest

from repro.checkers.consensus import ConsensusChecker
from repro.consensus.base import ID_SET_CODEC
from repro.consensus.mostefaoui_raynal import MostefaouiRaynalConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.core.events import RDeliverEvent
from repro.core.exceptions import ProtocolViolationError
from repro.core.identifiers import IdWatermark
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


class TestOriginalMrOnIdsIsUnfixable:
    def test_horn_2_unconditional_adoption_breaks_no_loss(self):
        """Execution (2): the coordinator's value is backed by nobody
        else; original MR adopts and decides it anyway — the decided
        configuration is v-valent but not v-stable."""
        fabric = make_fabric(3, f=1)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        a = app_message(2)
        give(fabric, stores, 2, a)  # only the coordinator holds msgs({a})
        services[2].propose(1, ids(a))
        services[1].propose(1, frozenset())
        services[3].propose(1, frozenset())
        fabric.run()
        assert decisions[1][1] == ids(a)
        checker = ConsensusChecker(fabric.trace, fabric.config)
        with pytest.raises(ProtocolViolationError, match="v-stability"):
            checker.check_v_stability(1)

    def test_horn_1_shows_why_adoption_cannot_simply_be_removed(self):
        """Execution (1): all processes hold msgs(v); the very same
        adoption rule is what lets a lagging process converge to the
        decided value.  (A 'conservative' MR that refuses unbacked
        values would diverge here — which is why the paper needs the
        quorum changes, not just a filter.)"""
        fabric = make_fabric(3, f=1)
        services, stores, decisions = mount(fabric, MostefaouiRaynalConsensus)
        a = app_message(2)
        for pid in (1, 2, 3):
            give(fabric, stores, pid, a)
        services[2].propose(1, ids(a))
        services[1].propose(1, frozenset())
        services[3].propose(1, frozenset())
        fabric.run()
        for pid in (1, 2, 3):
            assert decisions[pid][1] == ids(a)
        ConsensusChecker(fabric.trace, fabric.config).check_all(
            no_loss=True, v_stability=True
        )


class TestAlgorithmThreeDissolvesTheDilemma:
    def test_unbacked_value_cannot_be_decided_at_n4_f1(self):
        """Algorithm 3 at its bound: the unbacked coordinator value is
        filtered to ⊥ and a later round decides a backed value —
        No loss and v-stability hold."""
        fabric = make_fabric(4, f=1, detection_delay=5e-3)
        services, stores, decisions = mount(fabric, MRIndirectConsensus)
        a = app_message(2)
        b = app_message(1)
        give(fabric, stores, 2, a)
        for pid in (1, 2, 3, 4):
            give(fabric, stores, pid, b)
        services[2].propose(1, ids(a), stores[2].rcv)
        for pid in (1, 3, 4):
            services[pid].propose(1, ids(b), stores[pid].rcv)
        fabric.run()
        assert decisions[1][1] == ids(b)
        ConsensusChecker(fabric.trace, fabric.config).check_all(
            no_loss=True, v_stability=True
        )

    def test_the_price_is_the_quorum_not_the_filter(self):
        """With n=3 (where ⌈(2n+1)/3⌉ = n) a single crash stalls the
        echo quorum — concretely demonstrating why f must be < n/3
        rather than < n/2."""
        fabric = make_fabric(3, f=0)  # declared correctly: tolerates 0
        services, stores, decisions = mount(fabric, MRIndirectConsensus)
        m = app_message(1)
        for pid in (1, 2, 3):
            give(fabric, stores, pid, m)
            services[pid].propose(1, ids(m), stores[pid].rcv)
        # Beyond-bound crash (injected directly; the schedule validator
        # would reject it, which is the library's first line of defence).
        fabric.crash(3, at=0.2e-3)
        fabric.run(until=2.0)
        # The phase-2 quorum of 3 echoes can never be met: nobody decides.
        assert all(1 not in decisions[pid] for pid in (1, 2))
