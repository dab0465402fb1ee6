"""Fine-grained tests of the Algorithm-1 reduction mechanics.

Out-of-order decision application, the adeliver gate, batch caps, the
on-messages decision short-circuit, and the bookkeeping invariants the
Uniform-integrity guard protects.
"""

import pytest

from repro import StackSpec, build_system, make_payload
from repro.core.exceptions import ConfigurationError, ProtocolViolationError
from repro.core.identifiers import MessageId, order_id_set


def fresh_system(**kwargs):
    defaults = dict(n=3, abcast="indirect", consensus="ct-indirect", seed=0)
    defaults.update(kwargs)
    return build_system(StackSpec(**defaults))


class TestDecisionApplication:
    def test_out_of_order_decisions_buffer_until_gap_closes(self):
        system = fresh_system()
        abcast = system.abcasts[1]
        v1 = frozenset({MessageId(2, 1)})
        v2 = frozenset({MessageId(3, 1)})
        # Simulate flooded decisions arriving out of order.
        abcast._on_decide(2, v2)
        assert abcast.next_instance == 1
        assert abcast.backlog()["pending_decisions"] == 1
        abcast._on_decide(1, v1)
        assert abcast.next_instance == 3
        assert abcast.backlog()["pending_decisions"] == 0
        # Order in the delivery queue follows instance order then id order.
        assert list(abcast.ordered) == list(order_id_set(v1)) + list(order_id_set(v2))

    def test_decided_ids_removed_from_unordered(self):
        system = fresh_system()
        abcast = system.abcasts[1]
        mid = MessageId(1, 1)
        abcast.unordered.add(mid)
        abcast._on_decide(1, frozenset({mid}))
        assert mid not in abcast.unordered
        assert mid in abcast._ordered_set

    def test_duplicate_ordering_raises_protocol_violation(self):
        system = fresh_system()
        abcast = system.abcasts[1]
        mid = MessageId(1, 1)
        abcast._on_decide(1, frozenset({mid}))
        with pytest.raises(ProtocolViolationError, match="ordered twice"):
            abcast._on_decide(2, frozenset({mid}))


class TestAdeliverGate:
    def test_head_of_line_blocks_until_message_received(self):
        """Line 23: ordered-but-not-received heads block delivery of
        everything behind them.  Driven manually (no engine run) so the
        injected decision cannot race a live consensus instance."""
        system = fresh_system(seed=9)
        a1 = system.abcasts[1]
        held = a1.abroadcast(make_payload(1))  # local rdeliver is synchronous
        assert a1.store.has(held.mid)
        missing = MessageId(2, 1)
        a1._on_decide(1, frozenset({missing, held.mid}))
        # held = m1.1 sorts before missing = m2.1: held is delivered,
        # missing blocks at the head of the remaining queue.
        assert held.mid in a1.adelivered
        assert missing in a1._ordered_set
        assert a1.backlog()["ordered_awaiting_message"] == 1
        # The blocked head clears the moment its message shows up.
        from repro.core.message import AppMessage
        a1._on_rdeliver(
            AppMessage(mid=missing, sender=2, payload=make_payload(1))
        )
        assert missing in a1.adelivered
        assert a1.backlog()["ordered_awaiting_message"] == 0

    def test_blocked_message_delivered_when_copy_arrives(self):
        system = fresh_system()
        a1 = system.abcasts[1]
        a2 = system.abcasts[2]
        m = a2.abroadcast(make_payload(1))
        system.run_until_delivered(count=1, timeout=1.0)
        assert m.mid in a1.adelivered


class TestBatchCap:
    def test_cap_limits_proposal_size(self):
        system = fresh_system(batch_cap=2, seed=4)
        a1 = system.abcasts[1]
        for _ in range(6):
            a1.abroadcast(make_payload(1))
        system.run(until=1.0, max_events=2_000_000)
        for k in system.trace.instances():
            first = system.trace.first_decision(k)
            assert len(first.value) <= 2

    def test_cap_prefers_oldest_ids(self):
        system = fresh_system(batch_cap=1)
        abcast = system.abcasts[1]
        abcast.unordered.update({MessageId(2, 5), MessageId(1, 1), MessageId(2, 1)})
        assert abcast._batch() == frozenset({MessageId(1, 1)})

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            fresh_system(batch_cap=0)

    def test_all_messages_eventually_ordered_despite_cap(self):
        system = fresh_system(batch_cap=1, seed=2)
        a1 = system.abcasts[1]
        for _ in range(5):
            a1.abroadcast(make_payload(1))
        assert system.run_until_delivered(count=5, timeout=3.0)


class TestOnMessagesShortCircuit:
    def test_decision_carries_payloads_no_diffusion_wait(self):
        """With full messages inside consensus, a process that never
        r-delivered the payload still adelivers from the decision."""
        system = build_system(
            StackSpec(n=3, abcast="on-messages", consensus="ct", seed=1)
        )
        a3 = system.abcasts[3]
        delivered = []
        a3.on_adeliver(delivered.append)
        m = system.abcasts[1].abroadcast(make_payload(500, content="bulk"))
        system.run_until_delivered(count=1, timeout=1.0)
        assert m.mid in a3.adelivered
        assert delivered[0].payload.content == "bulk"
        # Adelivery drops the payload; the id stays received.
        assert a3.store.get(m.mid) is None and a3.store.has(m.mid)

    def test_unordered_id_without_message_raises_even_under_O(self):
        """unordered_p only holds r-delivered ids; proposing full messages
        for one that has none is reported as a violation (not an
        ``assert``, which ``python -O`` would strip)."""
        system = build_system(
            StackSpec(n=3, abcast="on-messages", consensus="ct", seed=1)
        )
        a1 = system.abcasts[1]
        a1.unordered.add(MessageId(2, 7))
        with pytest.raises(
            ProtocolViolationError, match="unordered id m2.7 without received"
        ):
            a1._maybe_propose()

    def test_message_set_codec_enforced(self):
        # The builder always pairs on-messages with MESSAGE_SET_CODEC;
        # constructing the class with the wrong codec must fail loudly.
        from repro.abcast.on_messages import OnMessagesAtomicBroadcast
        from repro.consensus.base import ID_SET_CODEC
        from repro.consensus.chandra_toueg import ChandraTouegConsensus
        from tests.helpers import make_fabric
        from repro.broadcast.flood import FloodReliableBroadcast

        fabric = make_fabric(3)
        transport = fabric.transports[1]
        broadcast = FloodReliableBroadcast(transport)
        consensus = ChandraTouegConsensus(
            transport, fabric.config, fabric.detectors[1], ID_SET_CODEC
        )
        with pytest.raises(ConfigurationError, match="MESSAGE_SET_CODEC"):
            OnMessagesAtomicBroadcast(transport, broadcast, consensus, fabric.config)
