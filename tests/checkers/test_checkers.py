"""The checkers must detect seeded violations (tests of the tests).

Every checker is fed hand-built traces containing exactly one violation
and must name the violated property; clean traces must pass.
"""

import pytest

from repro.checkers.abcast import AbcastChecker
from repro.checkers.broadcast import BroadcastChecker
from repro.checkers.consensus import ConsensusChecker
from repro.core.config import SystemConfig
from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    CrashEvent,
    DecideEvent,
    ProposeEvent,
    RBroadcastEvent,
    RDeliverEvent,
)
from repro.core.exceptions import ProtocolViolationError
from repro.core.identifiers import MessageId
from repro.core.message import AppMessage, make_payload
from repro.sim.trace import Trace


def msg(origin, seq):
    return AppMessage(mid=MessageId(origin, seq), payload=make_payload(1))


def trace_of(*events):
    trace = Trace()
    for e in events:
        trace.record(e)
    return trace


M1, M2 = msg(1, 1), msg(2, 1)
CFG = SystemConfig(n=2, f=0)


class TestBroadcastChecker:
    def test_clean_trace_passes(self):
        trace = trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.1, process=2, message=M1),
        )
        BroadcastChecker(trace, CFG).check_all()

    def test_detects_validity_violation(self):
        trace = trace_of(RBroadcastEvent(time=0.0, process=1, message=M1))
        with pytest.raises(ProtocolViolationError, match="RB Validity"):
            BroadcastChecker(trace, CFG).check_validity()

    def test_detects_duplicate_delivery(self):
        trace = trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.1, process=2, message=M1),
            RDeliverEvent(time=0.2, process=2, message=M1),
        )
        with pytest.raises(ProtocolViolationError, match="integrity"):
            BroadcastChecker(trace, CFG).check_uniform_integrity()

    def test_detects_spurious_delivery(self):
        trace = trace_of(RDeliverEvent(time=0.1, process=2, message=M1))
        with pytest.raises(ProtocolViolationError, match="integrity"):
            BroadcastChecker(trace, CFG).check_uniform_integrity()

    def test_detects_agreement_violation(self):
        trace = trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.0, process=1, message=M1),
        )
        with pytest.raises(ProtocolViolationError, match="Agreement"):
            BroadcastChecker(trace, CFG).check_agreement()

    def test_crashed_process_exempt_from_agreement(self):
        trace = trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.0, process=1, message=M1),
            CrashEvent(time=0.05, process=2),
        )
        BroadcastChecker(trace, SystemConfig(n=2, f=1)).check_agreement()

    def test_detects_uniform_agreement_violation(self):
        trace = trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1, uniform=True),
            RDeliverEvent(time=0.0, process=1, message=M1, uniform=True),
            CrashEvent(time=0.05, process=1),
        )
        # p1 (faulty) delivered; correct p2 never did.
        with pytest.raises(ProtocolViolationError, match="Uniform agreement"):
            BroadcastChecker(trace, SystemConfig(n=2, f=1)).check_uniform_agreement()


IDS = frozenset({M1.mid})


class TestConsensusChecker:
    def clean(self):
        return trace_of(
            ProposeEvent(time=0.0, process=1, instance=1, value=IDS),
            ProposeEvent(time=0.0, process=2, instance=1, value=IDS),
            RDeliverEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.0, process=2, message=M1),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
            DecideEvent(time=0.2, process=2, instance=1, value=IDS),
        )

    def test_clean_trace_passes_all(self):
        ConsensusChecker(self.clean(), SystemConfig(n=2, f=1)).check_all(
            no_loss=True, v_stability=True
        )

    def test_detects_disagreement(self):
        trace = trace_of(
            ProposeEvent(time=0.0, process=1, instance=1, value=IDS),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
            DecideEvent(time=0.2, process=2, instance=1, value=frozenset()),
        )
        with pytest.raises(ProtocolViolationError, match="agreement"):
            ConsensusChecker(trace, CFG).check_uniform_agreement(1)

    def test_detects_double_decide(self):
        trace = trace_of(
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
            DecideEvent(time=0.2, process=1, instance=1, value=IDS),
        )
        with pytest.raises(ProtocolViolationError, match="integrity"):
            ConsensusChecker(trace, CFG).check_uniform_integrity(1)

    def test_detects_invented_value(self):
        trace = trace_of(
            ProposeEvent(time=0.0, process=1, instance=1, value=frozenset()),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
        )
        with pytest.raises(ProtocolViolationError, match="validity"):
            ConsensusChecker(trace, CFG).check_uniform_validity(1)

    def test_detects_non_termination(self):
        trace = trace_of(
            ProposeEvent(time=0.0, process=1, instance=1, value=IDS),
            ProposeEvent(time=0.0, process=2, instance=1, value=IDS),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
        )
        with pytest.raises(ProtocolViolationError, match="Termination"):
            ConsensusChecker(trace, CFG).check_termination(1)

    def test_detects_no_loss_violation(self):
        trace = trace_of(
            ProposeEvent(time=0.0, process=1, instance=1, value=IDS),
            # decision at t=0.1 but NOBODY rdelivered M1
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
        )
        with pytest.raises(ProtocolViolationError, match="No loss"):
            ConsensusChecker(trace, CFG).check_no_loss(1)

    def test_no_loss_requires_correct_holder(self):
        trace = trace_of(
            RDeliverEvent(time=0.0, process=1, message=M1),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
            CrashEvent(time=0.5, process=1),  # the only holder is faulty
        )
        with pytest.raises(ProtocolViolationError, match="No loss"):
            ConsensusChecker(trace, SystemConfig(n=2, f=1)).check_no_loss(1)

    def test_v_stability_needs_f_plus_1_holders(self):
        trace = trace_of(
            RDeliverEvent(time=0.0, process=1, message=M1),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
        )
        with pytest.raises(ProtocolViolationError, match="v-stability"):
            ConsensusChecker(trace, SystemConfig(n=3, f=1)).check_v_stability(1)


class TestAbcastChecker:
    def test_detects_total_order_violation(self):
        trace = trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            ABroadcastEvent(time=0.0, process=2, message=M2),
            ADeliverEvent(time=0.1, process=1, message=M1),
            ADeliverEvent(time=0.2, process=1, message=M2),
            ADeliverEvent(time=0.1, process=2, message=M2),
            ADeliverEvent(time=0.2, process=2, message=M1),
        )
        with pytest.raises(ProtocolViolationError, match="total order"):
            AbcastChecker(trace, CFG).check_uniform_total_order()

    def test_detects_uniform_agreement_violation_even_by_faulty(self):
        trace = trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            ADeliverEvent(time=0.1, process=1, message=M1),
            CrashEvent(time=0.2, process=1),
        )
        # The faulty p1 adelivered; correct p2 must too.
        with pytest.raises(ProtocolViolationError, match="agreement"):
            AbcastChecker(trace, SystemConfig(n=2, f=1)).check_uniform_agreement()

    def test_detects_invented_message(self):
        trace = trace_of(ADeliverEvent(time=0.1, process=1, message=M1))
        with pytest.raises(ProtocolViolationError, match="integrity"):
            AbcastChecker(trace, CFG).check_uniform_integrity()

    def test_detects_hypothesis_a_violation(self):
        trace = trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.05, process=1, message=M1),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS),
            DecideEvent(time=0.1, process=2, instance=1, value=IDS),
            # p2 never rdelivers M1 although correct p1 holds it.
        )
        with pytest.raises(ProtocolViolationError, match="Hypothesis A"):
            AbcastChecker(trace, CFG).check_hypothesis_a()

    def test_clean_trace_passes(self):
        trace = trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.02, process=1, message=M1),
            RDeliverEvent(time=0.03, process=2, message=M1),
            ADeliverEvent(time=0.1, process=1, message=M1),
            ADeliverEvent(time=0.1, process=2, message=M1),
        )
        AbcastChecker(trace, CFG).check_all()
