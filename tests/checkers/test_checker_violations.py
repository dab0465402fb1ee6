"""Every checker property demonstrably fires on a violating trace.

The schedule-exploration subsystem's verdicts are exactly as
trustworthy as the checkers: a property whose check never fires would
silently turn the explorer into a rubber stamp.  This module keeps an
explicit violating-trace builder for **every** ``check_*`` method of
every checker class — and a completeness test that fails the moment a
new check method is added without a demonstrated violation.

(``tests/checkers/test_checkers.py`` covers adjacent cases — clean
traces, crash exemptions; this file is the exhaustive "does it fire"
matrix.)
"""

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers.abcast import AbcastChecker
from repro.checkers.broadcast import BroadcastChecker
from repro.checkers.consensus import ConsensusChecker
from repro.checkers.shard import ShardChecker
from repro.core.config import SystemConfig
from repro.shard.ops import KeyOp, TxAbort, TxCommit, TxPrepare
from repro.shard.router import shard_for
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
from repro.sim.trace import CountingTrace, Trace


def msg(origin, seq=1):
    return AppMessage(mid=MessageId(origin, seq), payload=make_payload(1))


def trace_of(*events):
    trace = Trace()
    for event in events:
        trace.record(event)
    return trace


def op_msg(origin, seq, content):
    """A message carrying a shard operation as its payload content."""
    return AppMessage(
        mid=MessageId(origin, seq),
        payload=make_payload(8, content=content),
    )


M1, M2, M3 = msg(1), msg(2), msg(3)
IDS1 = frozenset({M1.mid})
CFG2 = SystemConfig(n=2, f=0)
CFG3 = SystemConfig(n=3, f=1)

# Keys with known owners under the stable 2-shard hash (computed, not
# guessed — shard_for is process-independent, so this is deterministic).
_LETTERS = [chr(c) for c in range(ord("A"), ord("Z") + 1)]
K0, K0B = [k for k in _LETTERS if shard_for(k, 2) == 0][:2]
K1 = next(k for k in _LETTERS if shard_for(k, 2) == 1)


# ----------------------------------------------------------------------
# One violating scenario per check method:
#   name -> (checker class, config, trace builder, method args, match)
# ----------------------------------------------------------------------

VIOLATIONS = {
    # --- atomic broadcast ---------------------------------------------
    "abcast.check_validity": (
        AbcastChecker, CFG2,
        lambda: trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            # correct p1 never adelivers its own message
        ),
        (), "Validity",
    ),
    "abcast.check_uniform_integrity": (
        AbcastChecker, CFG2,
        lambda: trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            ADeliverEvent(time=0.1, process=2, message=M1),
            ADeliverEvent(time=0.2, process=2, message=M1),  # duplicate
        ),
        (), "integrity",
    ),
    "abcast.check_uniform_agreement": (
        AbcastChecker, SystemConfig(n=2, f=1),
        lambda: trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            ADeliverEvent(time=0.1, process=1, message=M1),
            CrashEvent(time=0.2, process=1),
            # even a faulty adeliverer obliges every correct process
        ),
        (), "agreement",
    ),
    "abcast.check_uniform_total_order": (
        AbcastChecker, CFG2,
        lambda: trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            ABroadcastEvent(time=0.0, process=2, message=M2),
            ADeliverEvent(time=0.1, process=1, message=M1),
            ADeliverEvent(time=0.2, process=1, message=M2),
            ADeliverEvent(time=0.1, process=2, message=M2),
            ADeliverEvent(time=0.2, process=2, message=M1),
        ),
        (), "total order",
    ),
    "abcast.check_hypothesis_a": (
        AbcastChecker, CFG2,
        lambda: trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.05, process=1, message=M1),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS1),
            # decided + held by correct p1, never reaches correct p2
        ),
        (), "Hypothesis A",
    ),
    # --- reliable broadcast -------------------------------------------
    "broadcast.check_validity": (
        BroadcastChecker, CFG2,
        lambda: trace_of(RBroadcastEvent(time=0.0, process=1, message=M1)),
        (), "RB Validity",
    ),
    "broadcast.check_uniform_integrity": (
        BroadcastChecker, CFG2,
        lambda: trace_of(
            RDeliverEvent(time=0.1, process=2, message=M1),  # never broadcast
        ),
        (), "integrity",
    ),
    "broadcast.check_agreement": (
        BroadcastChecker, CFG2,
        lambda: trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1),
            RDeliverEvent(time=0.0, process=1, message=M1),
            # correct p2 misses it
        ),
        (), "RB Agreement",
    ),
    "broadcast.check_uniform_agreement": (
        BroadcastChecker, SystemConfig(n=2, f=1),
        lambda: trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1, uniform=True),
            RDeliverEvent(time=0.0, process=1, message=M1, uniform=True),
            CrashEvent(time=0.05, process=1),
        ),
        (), "Uniform agreement",
    ),
    # --- consensus -----------------------------------------------------
    "consensus.check_uniform_integrity": (
        ConsensusChecker, CFG2,
        lambda: trace_of(
            DecideEvent(time=0.1, process=1, instance=1, value=IDS1),
            DecideEvent(time=0.2, process=1, instance=1, value=IDS1),
        ),
        (1,), "integrity",
    ),
    "consensus.check_uniform_agreement": (
        ConsensusChecker, CFG2,
        lambda: trace_of(
            DecideEvent(time=0.1, process=1, instance=1, value=IDS1),
            DecideEvent(time=0.2, process=2, instance=1, value=frozenset()),
        ),
        (1,), "agreement",
    ),
    "consensus.check_uniform_validity": (
        ConsensusChecker, CFG2,
        lambda: trace_of(
            ProposeEvent(time=0.0, process=1, instance=1, value=frozenset()),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS1),
        ),
        (1,), "validity",
    ),
    "consensus.check_termination": (
        ConsensusChecker, CFG2,
        lambda: trace_of(
            ProposeEvent(time=0.0, process=1, instance=1, value=IDS1),
            ProposeEvent(time=0.0, process=2, instance=1, value=IDS1),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS1),
        ),
        (1,), "Termination",
    ),
    "consensus.check_no_loss": (
        ConsensusChecker, SystemConfig(n=2, f=1),
        lambda: trace_of(
            RDeliverEvent(time=0.0, process=1, message=M1),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS1),
            CrashEvent(time=0.05, process=1),
            # sole holder crashed before the decision: no correct holder
        ),
        (1,), "No loss",
    ),
    "consensus.check_v_stability": (
        ConsensusChecker, CFG3,
        lambda: trace_of(
            RDeliverEvent(time=0.0, process=1, message=M1),
            DecideEvent(time=0.1, process=1, instance=1, value=IDS1),
            # one holder ever; f + 1 = 2 needed
        ),
        (1,), "v-stability",
    ),
    # --- sharded service (checker takes a *list* of per-group traces) --
    "shard.check_key_placement": (
        ShardChecker, CFG2,
        lambda: [
            trace_of(
                # group 0 delivers an operation on K1 — owned by group 1
                ADeliverEvent(
                    time=0.1, process=1,
                    message=op_msg(1, 1, KeyOp(K1, "deposit", 1)),
                ),
            ),
            trace_of(),
        ],
        (), "placement",
    ),
    "shard.check_per_key_order": (
        ShardChecker, CFG2,
        lambda: [
            trace_of(
                # p1 and p2 deliver the two K0 operations in opposite
                # orders — a per-key order contradiction inside group 0
                ADeliverEvent(
                    time=0.1, process=1,
                    message=op_msg(1, 1, KeyOp(K0, "deposit", 1)),
                ),
                ADeliverEvent(
                    time=0.2, process=1,
                    message=op_msg(2, 1, KeyOp(K0, "withdraw", 1)),
                ),
                ADeliverEvent(
                    time=0.1, process=2,
                    message=op_msg(2, 1, KeyOp(K0, "withdraw", 1)),
                ),
                ADeliverEvent(
                    time=0.2, process=2,
                    message=op_msg(1, 1, KeyOp(K0, "deposit", 1)),
                ),
            ),
            trace_of(),
        ],
        (), "per-key order",
    ),
    "shard.check_outcome_order": (
        ShardChecker, CFG2,
        lambda: [
            trace_of(
                # outcome delivered before the prepare leg it finalizes
                ADeliverEvent(
                    time=0.1, process=1,
                    message=op_msg(1, 1, TxCommit("tx1")),
                ),
                ADeliverEvent(
                    time=0.2, process=1,
                    message=op_msg(1, 2, TxPrepare("tx1", K0, "debit", 1)),
                ),
            ),
            trace_of(),
        ],
        (), "outcome order",
    ),
    "shard.check_commit_atomicity": (
        ShardChecker, CFG2,
        lambda: [
            trace_of(
                ADeliverEvent(
                    time=0.1, process=1,
                    message=op_msg(1, 1, TxPrepare("tx1", K0, "debit", 1)),
                ),
                ADeliverEvent(
                    time=0.2, process=1,
                    message=op_msg(1, 2, TxCommit("tx1")),
                ),
            ),
            trace_of(
                ADeliverEvent(
                    time=0.1, process=1,
                    message=op_msg(2, 1, TxPrepare("tx1", K1, "credit", 1)),
                ),
                # group 1 aborts what group 0 committed
                ADeliverEvent(
                    time=0.2, process=1,
                    message=op_msg(2, 2, TxAbort("tx1")),
                ),
            ),
        ],
        (), "atomicity",
    ),
}

CHECKERS = (AbcastChecker, BroadcastChecker, ConsensusChecker, ShardChecker)
PREFIX = {
    AbcastChecker: "abcast",
    BroadcastChecker: "broadcast",
    ConsensusChecker: "consensus",
    ShardChecker: "shard",
}


def test_every_check_method_has_a_firing_scenario():
    """Completeness guard: adding a check without a violating trace here
    fails this test, not silently weakens the explorer."""
    expected = {
        f"{PREFIX[cls]}.{name}"
        for cls in CHECKERS
        for name in dir(cls)
        if name.startswith("check_") and name != "check_all"
    }
    assert expected == set(VIOLATIONS)


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_property_fires(case):
    cls, config, build, args, match = VIOLATIONS[case]
    checker = cls(build(), config)
    method = getattr(checker, case.split(".", 1)[1])
    with pytest.raises(ProtocolViolationError, match=match):
        method(*args)


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_check_all_also_reports_it(case):
    """The aggregate entry points must reach every individual check."""
    cls, config, build, args, match = VIOLATIONS[case]
    checker = cls(build(), config)
    with pytest.raises(ProtocolViolationError):
        if cls is BroadcastChecker:
            checker.check_all(uniform=True)
        elif cls is ConsensusChecker:
            checker.check_all(no_loss=True, v_stability=True)
        else:
            checker.check_all(expect_quiescent=True)


def tx_delivery(process, seq, content, group=0):
    """``process`` of ``group`` adelivers transaction leg ``content``."""
    return ADeliverEvent(
        time=0.1 * seq, process=process,
        message=op_msg(group + 1, seq, content),
    )


PREPARE0 = TxPrepare("tx1", K0, "debit", 1)
UNDECIDED_PARTICIPANT = (
    r"decided in groups \[0\] but participant group 1 \(with correct "
    r"processes\) never delivered an outcome"
)

#: The commit-atomicity raises the table above does not reach, keyed by
#: the detail each names: violating per-group traces.
ATOMICITY_BREAKS = {
    "group 0 delivered both commit and abort": lambda: [
        trace_of(
            tx_delivery(1, 1, PREPARE0),
            tx_delivery(1, 2, TxCommit("tx1")),
            tx_delivery(2, 1, PREPARE0),
            tx_delivery(2, 3, TxAbort("tx1")),
        ),
        trace_of(),
    ],
    "outcome for 'tx1' without ever delivering its prepare": lambda: [
        trace_of(tx_delivery(1, 1, TxCommit("tx1"))),
        trace_of(),
    ],
    UNDECIDED_PARTICIPANT: lambda: [
        trace_of(
            tx_delivery(1, 1, PREPARE0),
            tx_delivery(1, 2, TxCommit("tx1")),
        ),
        trace_of(
            tx_delivery(1, 1, TxPrepare("tx1", K1, "credit", 1), group=1)
        ),
    ],
}


@pytest.mark.parametrize("detail", sorted(ATOMICITY_BREAKS))
def test_commit_atomicity_names_each_way_it_breaks(detail):
    checker = ShardChecker(ATOMICITY_BREAKS[detail](), CFG2)
    with pytest.raises(
        ProtocolViolationError,
        match=f"Two-group atomicity violated: .*{detail}",
    ):
        checker.check_commit_atomicity(expect_quiescent=True)


def test_an_undecided_participant_counts_only_at_quiescence():
    checker = ShardChecker(ATOMICITY_BREAKS[UNDECIDED_PARTICIPANT](), CFG2)
    checker.check_commit_atomicity(expect_quiescent=False)


def test_v_stability_counts_holders_that_crashed_after_receiving():
    """The fixed stability semantics: a holder crashing between its ack
    and the decision does not subtract from the holder count (the ≤ f
    total-crash bound is what converts f + 1 holders into No loss)."""
    trace = trace_of(
        RDeliverEvent(time=0.0, process=1, message=M1),
        RDeliverEvent(time=0.0, process=2, message=M1),
        CrashEvent(time=0.05, process=1),
        DecideEvent(time=0.1, process=3, instance=1, value=IDS1),
    )
    checker = ConsensusChecker(trace, CFG3)
    checker.check_v_stability(1)   # 2 holders ever: p1 (crashed), p2
    checker.check_no_loss(1)       # p2 is the surviving correct holder
    assert trace.holders_at(IDS1, 0.1) == frozenset({2})
    assert trace.holders_at(IDS1, 0.1, include_crashed=True) == frozenset({1, 2})


def _skip_before_a_crash():
    """p1 adelivers a then b and crashes; p2 and p3 adeliver a, c, b."""
    a, b, c = msg(1), msg(2), msg(3)
    events = [ABroadcastEvent(time=0.0, process=m.mid.origin, message=m)
              for m in (a, b, c)]
    events += [
        ADeliverEvent(time=0.1, process=1, message=a),
        ADeliverEvent(time=0.2, process=1, message=b),
        CrashEvent(time=0.3, process=1),
    ]
    for process in (2, 3):
        events += [
            ADeliverEvent(time=0.1, process=process, message=a),
            ADeliverEvent(time=0.2, process=process, message=c),
            ADeliverEvent(time=0.3, process=process, message=b),
        ]
    return trace_of(*events)


def test_uniform_total_order_forbids_skipping_a_message_before_a_crash():
    """Each pair agrees on the relative order of what both delivered,
    but p1 adelivered b without c before it, which the property
    forbids."""
    checker = AbcastChecker(_skip_before_a_crash(), CFG3)
    with pytest.raises(
        ProtocolViolationError,
        match=r"Uniform total order.*p1 and p2 .* contradictory orders "
        r"around \(MessageId\(origin=2",
    ):
        checker.check_all(expect_quiescent=True)


# ----------------------------------------------------------------------
# The linearised checks against their definitions.
#
# The abcast and rb ``check_validity`` (and rb ``check_uniform_agreement``)
# look a message up in a delivered set built once per process, and
# ``holders_at`` answers from a first-r-delivery-time index; the
# definitions below are the quadratic originals (list membership, the
# set rebuilt per message or query).  Each linearised check must raise
# the same property and the same detail string on every trace here.
# ----------------------------------------------------------------------


def reference_holders_at(trace, ids, time, include_crashed=False):
    holders = set()
    for process in {e.process for e in trace.rdeliveries()}:
        if not include_crashed:
            crash = trace.crash_time(process)
            if crash is not None and crash <= time:
                continue
        held = {
            e.message.mid for e in trace.rdeliveries(process) if e.time <= time
        }
        if ids <= held:
            holders.add(process)
    return frozenset(holders)


def reference_check_validity(trace, config):
    correct = trace.correct_processes(config.processes)
    for event in trace.abroadcasts():
        mid = event.message.mid
        if event.process in correct and mid not in trace.adelivery_sequence(
            event.process
        ):
            raise ProtocolViolationError(
                "Abcast Validity",
                f"correct p{event.process} abroadcast {mid} "
                f"but never adelivered it",
            )


def reference_sequences(trace, config):
    return {p: trace.adelivery_sequence(p) for p in config.processes}


def reference_check_uniform_integrity(trace, config):
    abroadcast = {e.message.mid for e in trace.abroadcasts()}
    for process, sequence in reference_sequences(trace, config).items():
        for mid, count in Counter(sequence).items():
            if count > 1:
                raise ProtocolViolationError(
                    "Abcast Uniform integrity",
                    f"p{process} adelivered {mid} {count} times",
                )
            if mid not in abroadcast:
                raise ProtocolViolationError(
                    "Abcast Uniform integrity",
                    f"p{process} adelivered {mid} which was never abroadcast",
                )


def reference_check_uniform_agreement(trace, config):
    sequences = reference_sequences(trace, config)
    delivered_by_anyone = set().union(*sequences.values())
    for process in trace.correct_processes(config.processes):
        missing = delivered_by_anyone - set(sequences[process])
        if missing:
            raise ProtocolViolationError(
                "Abcast Uniform agreement",
                f"correct p{process} missed {len(missing)} adelivered "
                f"messages, e.g. {sorted(missing)[:3]}",
            )


def reference_check_uniform_total_order(trace, config):
    """For each pair, with ``k`` the messages both adelivered, the first
    ``k`` entries of both sequences are equal."""
    sequences = reference_sequences(trace, config)
    processes = [p for p, seq in sequences.items() if seq]
    for i, p in enumerate(processes):
        for q in processes[i + 1:]:
            k = len(set(sequences[p]) & set(sequences[q]))
            by_p, by_q = sequences[p][:k], sequences[q][:k]
            if by_p != by_q:
                divergence = next((a, b) for a, b in zip(by_p, by_q) if a != b)
                raise ProtocolViolationError(
                    "Abcast Uniform total order",
                    f"p{p} and p{q} deliver in contradictory orders "
                    f"around {divergence}",
                )


def reference_check_correct_prefix_consistency(trace, config):
    """Correct processes' sequences are identical; never fires once
    integrity, total order and agreement hold."""
    sequences = reference_sequences(trace, config)
    correct = sorted(trace.correct_processes(config.processes))
    for process in correct:
        if sequences[process] != sequences[correct[0]]:
            raise ProtocolViolationError(
                "Abcast order consistency",
                f"correct p{process} delivered a different sequence "
                f"than correct p{correct[0]}",
            )


def reference_check_hypothesis_a(trace, config):
    decided_ids = set()
    for first in trace.first_decisions().values():
        decided_ids.update(first.value)
    rdelivered = {
        p: {e.message.mid for e in trace.rdeliveries(p)}
        for p in trace.correct_processes(config.processes)
    }
    union = set().union(*rdelivered.values())
    for process, held in rdelivered.items():
        missing = (decided_ids & union) - held
        if missing:
            raise ProtocolViolationError(
                "Hypothesis A",
                f"correct p{process} never rdelivered decided messages "
                f"{sorted(missing)[:3]} held by other correct processes",
            )


def reference_check_all(trace, config, expect_quiescent=True):
    """The batch ``AbcastChecker.check_all`` the streaming fold replaced."""
    reference_check_uniform_integrity(trace, config)
    reference_check_uniform_total_order(trace, config)
    if expect_quiescent:
        reference_check_validity(trace, config)
        reference_check_uniform_agreement(trace, config)
        reference_check_correct_prefix_consistency(trace, config)
        reference_check_hypothesis_a(trace, config)


def reference_rb_check_validity(trace, config):
    correct = trace.correct_processes(config.processes)
    for event in trace.rbroadcasts():
        sender, mid = event.process, event.message.mid
        delivered = {e.message.mid for e in trace.rdeliveries(sender)}
        if sender in correct and mid not in delivered:
            raise ProtocolViolationError(
                "RB Validity",
                f"correct p{sender} rbroadcast {mid} but never rdelivered it",
            )


def reference_rb_check_uniform_agreement(trace, config):
    delivered_by_anyone = {
        e.message.mid for e in trace.rdeliveries() if e.uniform
    }
    for process in trace.correct_processes(config.processes):
        delivered = {e.message.mid for e in trace.rdeliveries(process)}
        missing = delivered_by_anyone - delivered
        if missing:
            raise ProtocolViolationError(
                "URB Uniform agreement",
                f"correct p{process} missed {len(missing)} urb-delivered "
                f"messages, e.g. {sorted(missing)[:3]}",
            )


def reference_check_no_loss(trace, config, instance):
    first = trace.first_decision(instance)
    holders = reference_holders_at(trace, first.value, first.time)
    if not holders & trace.correct_processes(config.processes):
        raise ProtocolViolationError(
            "No loss",
            f"instance {instance} decided {sorted(first.value)} at "
            f"t={first.time:.6f} but no correct process held the "
            f"messages (holders: {sorted(holders)})",
        )


def reference_check_v_stability(trace, config, instance):
    first = trace.first_decision(instance)
    holders = reference_holders_at(
        trace, first.value, first.time, include_crashed=True
    )
    needed = config.stability_threshold()
    if len(holders) < needed:
        raise ProtocolViolationError(
            "v-stability",
            f"instance {instance}: only {len(holders)} processes held "
            f"msgs(v) at decision time t={first.time:.6f}, "
            f"need f+1={needed}",
        )


def _crash_at_decision_time():
    """p1 and p2 hold msgs(v); p2 crashes at the very instant p3
    decides.  A crash at ``t`` counts as "before t": p2 is no live
    holder, but it is a holder that ever was."""
    return trace_of(
        RDeliverEvent(time=0.0, process=1, message=M1),
        RDeliverEvent(time=0.0, process=2, message=M1),
        CrashEvent(time=0.05, process=1),
        CrashEvent(time=0.1, process=2),
        DecideEvent(time=0.1, process=3, instance=1, value=IDS1),
    )


#: check/trace -> (checker class, the check's definition, config, trace
#: builder, args); the check's method name is the definition's from
#: ``check_`` on.
EQUIVALENCE = {
    "validity/matrix": (
        AbcastChecker, reference_check_validity,
        *VIOLATIONS["abcast.check_validity"][1:4],
    ),
    "validity/delivers-others-not-own": (
        AbcastChecker, reference_check_validity, CFG2,
        lambda: trace_of(
            ABroadcastEvent(time=0.0, process=1, message=M1),
            ABroadcastEvent(time=0.0, process=2, message=M2),
            # both adeliver M1; correct p2 never adelivers its own M2
            ADeliverEvent(time=0.1, process=1, message=M1),
            ADeliverEvent(time=0.1, process=2, message=M1),
        ),
        (),
    ),
    "rb_validity/matrix": (
        BroadcastChecker, reference_rb_check_validity,
        *VIOLATIONS["broadcast.check_validity"][1:4],
    ),
    "rb_validity/second-of-two-senders": (
        BroadcastChecker, reference_rb_check_validity, CFG2,
        lambda: trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1),
            RBroadcastEvent(time=0.0, process=2, message=M2),
            RDeliverEvent(time=0.1, process=1, message=M1),
            RDeliverEvent(time=0.1, process=2, message=M1),
        ),
        (),
    ),
    "rb_uniform_agreement/matrix": (
        BroadcastChecker, reference_rb_check_uniform_agreement,
        *VIOLATIONS["broadcast.check_uniform_agreement"][1:4],
    ),
    "rb_uniform_agreement/one-of-two-missed": (
        BroadcastChecker, reference_rb_check_uniform_agreement,
        SystemConfig(n=3, f=1),
        lambda: trace_of(
            RBroadcastEvent(time=0.0, process=1, message=M1, uniform=True),
            RBroadcastEvent(time=0.0, process=2, message=M2, uniform=True),
            RDeliverEvent(time=0.1, process=1, message=M1, uniform=True),
            RDeliverEvent(time=0.1, process=1, message=M2, uniform=True),
            RDeliverEvent(time=0.1, process=2, message=M2, uniform=True),
            RDeliverEvent(time=0.2, process=3, message=M1, uniform=True),
            RDeliverEvent(time=0.2, process=3, message=M2, uniform=True),
        ),
        (),
    ),
    "no_loss/matrix": (
        ConsensusChecker, reference_check_no_loss,
        *VIOLATIONS["consensus.check_no_loss"][1:4],
    ),
    "no_loss/crash-at-decision-time": (
        ConsensusChecker, reference_check_no_loss,
        SystemConfig(n=3, f=2), _crash_at_decision_time, (1,),
    ),
    "v_stability/matrix": (
        ConsensusChecker, reference_check_v_stability,
        *VIOLATIONS["consensus.check_v_stability"][1:4],
    ),
    "v_stability/crash-at-decision-time": (
        # Two holders ever (p1, p2), both crashed by the decision:
        # enough for f + 1 = 2, not for f + 1 = 3.
        ConsensusChecker, reference_check_v_stability,
        SystemConfig(n=3, f=2), _crash_at_decision_time, (1,),
    ),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE))
def test_linearised_check_matches_its_definition(case):
    cls, reference, config, build, args = EQUIVALENCE[case]
    check = getattr(
        cls(build(), config), "check_" + reference.__name__.split("check_")[1]
    )
    with pytest.raises(ProtocolViolationError) as expected:
        reference(build(), config, *args)
    with pytest.raises(ProtocolViolationError) as actual:
        check(*args)
    assert actual.value.prop == expected.value.prop
    assert actual.value.detail == expected.value.detail


def test_holders_at_matches_its_definition_at_the_crash_instant():
    trace = _crash_at_decision_time()
    for include_crashed in (False, True):
        for time in (0.0, 0.05, 0.1):
            assert trace.holders_at(
                IDS1, time, include_crashed=include_crashed
            ) == reference_holders_at(trace, IDS1, time, include_crashed)
    assert trace.holders_at(IDS1, 0.1) == frozenset()
    assert trace.holders_at(IDS1, 0.1, include_crashed=True) == frozenset({1, 2})
    # ... and a decision that holds under f + 1 = 2 passes both ways.
    ConsensusChecker(trace, CFG3).check_v_stability(1)
    reference_check_v_stability(trace, CFG3, 1)


# ----------------------------------------------------------------------
# The streaming abcast fold against the batch definitions it replaced.
#
# ``AbcastChecker`` folds one event at a time and forgets a message once
# every live process adelivered it; the ``reference_check_*`` functions
# above are the batch checker it replaced, which held every sequence.
# ----------------------------------------------------------------------


def _crashed_prefix_diverges():
    """p1 adelivers a, b and crashes; p2 adelivers a, c.  A common prefix
    then disjoint suffixes: total order holds pairwise, although no one
    sequence has both as prefixes."""
    a, b, c = msg(1), msg(2), msg(3)
    return trace_of(
        *(ABroadcastEvent(time=0.0, process=m.mid.origin, message=m)
          for m in (a, b, c)),
        ADeliverEvent(time=0.1, process=1, message=a),
        ADeliverEvent(time=0.1, process=2, message=a),
        ADeliverEvent(time=0.2, process=1, message=b),
        CrashEvent(time=0.3, process=1),
        ADeliverEvent(time=0.4, process=2, message=c),
    )


def _tied_first_decisions():
    """Instance 1 is decided twice at the same instant: p2 first in the
    trace, but p1's decision is the first by (time, pid).  Only p1's M2
    is decided, and correct p2 never rdelivers it."""
    return trace_of(
        RDeliverEvent(time=0.05, process=1, message=M1),
        RDeliverEvent(time=0.05, process=1, message=M2),
        DecideEvent(time=0.1, process=2, instance=1, value=frozenset({M1.mid})),
        DecideEvent(time=0.1, process=1, instance=1, value=frozenset({M2.mid})),
    )


def _late_disagreeing_decision():
    """p2 decides instance 1 differently after p1's first decision (and
    after instance 2's): it is not a first decision, so M2 is not
    decided, although correct p1 alone rdelivered it."""
    return trace_of(
        RDeliverEvent(time=0.05, process=1, message=M1),
        RDeliverEvent(time=0.05, process=2, message=M1),
        RDeliverEvent(time=0.05, process=1, message=M2),
        DecideEvent(time=0.1, process=1, instance=1, value=frozenset({M1.mid})),
        DecideEvent(time=0.15, process=1, instance=2, value=frozenset()),
        DecideEvent(time=0.2, process=2, instance=1, value=frozenset({M2.mid})),
    )


#: name -> (config, trace builder): every abcast case of this module.
ABCAST_CASES = {
    **{
        case: VIOLATIONS[case][1:3]
        for case in VIOLATIONS if VIOLATIONS[case][0] is AbcastChecker
    },
    "validity/delivers-others-not-own":
        EQUIVALENCE["validity/delivers-others-not-own"][2:4],
    "total-order/skip-before-a-crash": (CFG3, _skip_before_a_crash),
    "total-order/crashed-prefix-diverges": (CFG3, _crashed_prefix_diverges),
    "hypothesis-a/tied-first-decisions": (CFG2, _tied_first_decisions),
    "hypothesis-a/late-disagreeing-decision": (
        CFG2, _late_disagreeing_decision,
    ),
}

ABCAST_REFERENCES = (
    reference_check_validity,
    reference_check_uniform_integrity,
    reference_check_uniform_agreement,
    reference_check_uniform_total_order,
    reference_check_hypothesis_a,
)


def verdict(check, *args):
    """``(prop, detail)`` of the violation ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except ProtocolViolationError as error:
        return error.prop, error.detail
    return None


@pytest.mark.parametrize("case", sorted(ABCAST_CASES))
def test_fold_matches_the_batch_definitions(case):
    config, build = ABCAST_CASES[case]
    replayed = AbcastChecker(build(), config)
    streamed = AbcastChecker(None, config)
    feed = CountingTrace([streamed.on_event])
    for event in build().events:
        feed.record(event)
    # A sink must survive pickling with the system it rides on.
    copied = pickle.loads(pickle.dumps(feed)).sinks[0].__self__
    for checker in (replayed, streamed, copied):
        for quiescent in (True, False):
            assert verdict(checker.check_all, quiescent) == verdict(
                reference_check_all, build(), config, quiescent
            )
        for reference in ABCAST_REFERENCES:
            check = getattr(checker, "check_" + reference.__name__.split("check_")[1])
            assert verdict(check) == verdict(reference, build(), config)


def test_a_crashed_prefix_may_diverge():
    AbcastChecker(_crashed_prefix_diverges(), CFG3).check_all(
        expect_quiescent=False
    )


#: Step kinds, weighted: "adeliver" takes the next id of the process's
#: planned sequence, "stray" adelivers any id (a repeat, or one nobody
#: abroadcast or planned).
_KINDS = ("adeliver",) * 20 + ("rdeliver",) * 8 + ("decide",) * 6 + (
    "crash", "abroadcast", "stray",
)


@st.composite
def random_traces(draw):
    """A trace of n <= 4 processes over <= 6 ids: abroadcasts, each
    process's adeliveries (a prefix of one shared order, or of its own
    for about one process in three,
    completed at the end in about half the traces), stray adeliveries,
    rdeliveries, decides (same-time ties and disagreeing values
    included) and crashes.  As in every simulated run, a crashed
    process records nothing after its crash."""
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(
        st.builds(MessageId, st.integers(1, n), st.integers(1, 3)),
        min_size=1, max_size=6, unique=True,
    ))
    shared = draw(st.permutations(ids))
    plans = {
        p: list(draw(st.permutations(ids)) if draw(st.integers(0, 2)) == 0
                else shared)
        for p in range(1, n + 1)
    }
    steps = draw(st.lists(st.tuples(
        st.sampled_from(_KINDS), st.integers(1, n), st.sampled_from(ids),
        st.integers(1, 3), st.frozensets(st.sampled_from(ids), max_size=3),
        st.integers(0, 1),
    ), min_size=5, max_size=40))
    if draw(st.booleans()):
        steps += [
            ("adeliver", p, ids[0], 1, frozenset(), 1)
            for p in plans for _ in ids
        ]
    trace, now, crashed = Trace(), 0, set()
    for mid in ids:
        if draw(st.integers(0, 19)):
            trace.record(ABroadcastEvent(0, mid.origin, msg(*mid)))
    for kind, process, mid, instance, value, tick in steps:
        now += tick
        if process in crashed or kind == "adeliver" and not plans[process]:
            continue
        if kind == "adeliver":
            mid = plans[process].pop(0)
        message = msg(*mid)
        trace.record({
            "abroadcast": lambda: ABroadcastEvent(now, process, message),
            "adeliver": lambda: ADeliverEvent(now, process, message),
            "stray": lambda: ADeliverEvent(now, process, message),
            "rdeliver": lambda: RDeliverEvent(now, process, message),
            "decide": lambda: DecideEvent(now, process, instance, value),
            "crash": lambda: CrashEvent(now, process),
        }[kind]())
        if kind == "crash":
            crashed.add(process)
    return trace, SystemConfig(n=n)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(random_traces())
def test_fold_gives_the_batch_verdict_on_random_traces(case):
    """Same verdict and property at both ``expect_quiescent`` values;
    the same detail too, except that uniform integrity names a process's
    earliest breaking adelivery where the batch definition named the
    earliest first occurrence of a breaking id."""
    trace, config = case
    checker = AbcastChecker(trace, config)
    for quiescent in (True, False):
        expected = verdict(reference_check_all, trace, config, quiescent)
        actual = verdict(checker.check_all, quiescent)
        if expected and expected[0] == "Abcast Uniform integrity":
            expected, actual = expected[0], actual and actual[0]
        assert actual == expected
