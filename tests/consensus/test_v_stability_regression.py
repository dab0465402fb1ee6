"""Regression: a holder crashing between its ack and the decision.

Pinned from the Hypothesis falsifying example that
``test_indirect_ct_no_loss_under_adversity`` kept replaying out of the
container-local ``.hypothesis`` database::

    s = (3, {1: {1}, 2: {1, 2}, 3: {3}}, [1], [0.00390625], ())

Timeline (constant 1 ms links, oracle FD with 3 ms detection):

* round-1 coordinator p2 proposes its own estimate ``{m1, m2}``; p1 and
  p3 nack it through the rcv gate (neither holds ``m2``), so round 2
  rotates to p3;
* p3 reaches its estimate quorum with ``{m1}`` (from p1) and its own
  ``{m3}`` before p2's higher-timestamp estimate arrives, proposes
  ``{m1}``;
* p1 and p2 both hold ``m1``: they pass the rcv gate and ack at t=3 ms;
* p1 crashes at t=3.90625 ms — *after* acking, *before* the decide
  frames land at t=5 ms.

Algorithm 2 behaved exactly per the paper: every acker held ``msgs(v)``
when it acked, and with at most ``f`` crashes in the whole run one of
the ``f + 1`` holders (p2) is correct — No loss holds.  The original
checker nevertheless flagged v-stability because it demanded ``f + 1``
holders *alive at decision time*, excluding p1 and thereby counting its
crash twice (once against the holder set, once against the ``f``
budget).  No protocol can keep a holder alive after it legitimately
crashes, so the checker was wrong, not the algorithm; v-stability now
counts distinct processes that had received ``msgs(v)`` by the decision
time (``Trace.holders_at(..., include_crashed=True)``).

This test replays the exact scenario deterministically — no Hypothesis
database involved — and asserts both the fixed verdict and the shape
that made the old interpretation fire.
"""

from repro.checkers.consensus import ConsensusChecker
from repro.consensus.base import ID_SET_CODEC
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.core.events import RDeliverEvent
from repro.core.identifiers import IdWatermark, MessageId
from repro.core.message import AppMessage, make_payload
from repro.core.rcv import ReceivedStore
from tests.helpers import make_fabric

HOLDERS_MAP = {1: {1}, 2: {1, 2}, 3: {3}}
CRASH_PID, CRASH_AT = 1, 0.00390625


def run_pinned_scenario():
    fabric = make_fabric(3, f=1, detection_delay=3e-3)
    services, stores, decisions = {}, {}, {}
    for pid in fabric.config.processes:
        services[pid] = CTIndirectConsensus(
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
    messages = {
        origin: AppMessage(mid=MessageId(origin, 1), payload=make_payload(4))
        for origin in fabric.config.processes
    }
    for pid in fabric.config.processes:
        held = [messages[o] for o in HOLDERS_MAP[pid]]
        for m in held:
            stores[pid].add(m)
            fabric.trace.record(RDeliverEvent(time=0.0, process=pid, message=m))
        services[pid].propose(
            1, frozenset(m.mid for m in held), stores[pid].rcv
        )
    fabric.crash(CRASH_PID, at=CRASH_AT)
    fabric.run(until=5.0, max_events=3_000_000)
    return fabric, decisions


def test_all_properties_hold_including_v_stability():
    fabric, decisions = run_pinned_scenario()
    assert decisions[2], "the scenario must reach a decision"
    ConsensusChecker(fabric.trace, fabric.config).check_all(
        no_loss=True, v_stability=True
    )


def test_scenario_still_exercises_the_crash_between_ack_and_decide():
    """Guard the regression's shape: the decided value's holder set must
    genuinely lose a member to a crash before the first decision, and
    still retain one correct holder (the No loss obligation)."""
    fabric, _ = run_pinned_scenario()
    first = fabric.trace.first_decision(1)
    assert first is not None
    live = fabric.trace.holders_at(first.value, first.time)
    ever = fabric.trace.holders_at(first.value, first.time, include_crashed=True)
    # The old live-holder interpretation saw fewer than f + 1 holders...
    assert len(live) < fabric.config.stability_threshold()
    # ...because an acker crashed after receiving msgs(v), not because
    # the decision was unbacked: counting every receiver restores f + 1,
    assert len(ever) >= fabric.config.stability_threshold()
    assert CRASH_PID in ever - live
    # ...and a correct holder survives, which is what No loss promises.
    assert live & fabric.trace.correct_processes(fabric.config.processes)
