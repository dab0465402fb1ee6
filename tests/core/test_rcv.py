"""Tests for the ReceivedStore and the rcv predicate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.identifiers import IdWatermark, MessageId
from repro.core.message import AppMessage, make_payload
from repro.core.rcv import ReceivedStore


#: Origins in these tests run up to 9.
N = 9


def empty_store() -> ReceivedStore:
    return ReceivedStore(IdWatermark(N))


def msg(origin: int, seq: int) -> AppMessage:
    return AppMessage(
        mid=MessageId(origin, seq), sender=origin, payload=make_payload(8)
    )


class TestReceivedStore:
    def test_add_and_lookup(self):
        store = empty_store()
        m = msg(1, 1)
        assert store.add(m)
        assert store.has(m.mid)
        assert store.get(m.mid) is m
        assert m.mid in store
        assert len(store) == 1

    def test_add_is_idempotent(self):
        store = empty_store()
        m = msg(1, 1)
        assert store.add(m)
        assert not store.add(m)
        assert len(store) == 1

    def test_get_missing_returns_none(self):
        assert empty_store().get(MessageId(1, 1)) is None

    def test_snapshot_ids(self):
        store = empty_store()
        store.add(msg(1, 1))
        store.add(msg(2, 3))
        assert store.snapshot_ids() == {MessageId(1, 1), MessageId(2, 3)}


class TestRcvPredicate:
    def test_rcv_true_when_all_present(self):
        store = empty_store()
        store.add(msg(1, 1))
        store.add(msg(2, 1))
        assert store.rcv([MessageId(1, 1), MessageId(2, 1)])

    def test_rcv_false_on_any_missing(self):
        store = empty_store()
        store.add(msg(1, 1))
        assert not store.rcv([MessageId(1, 1), MessageId(9, 9)])

    def test_rcv_true_on_empty_set(self):
        assert empty_store().rcv([])

    def test_missing_reports_the_gap(self):
        store = empty_store()
        store.add(msg(1, 1))
        want = [MessageId(1, 1), MessageId(3, 1), MessageId(4, 2)]
        assert store.missing(want) == {MessageId(3, 1), MessageId(4, 2)}

    def test_lookup_accounting_counts_probes(self):
        """The simulation charges CPU per probe; the counter must reflect
        exactly the probes performed (short-circuiting on a miss)."""
        store = empty_store()
        store.add(msg(1, 1))
        store.add(msg(1, 2))
        assert store.lookup_count == 0
        store.rcv([MessageId(1, 1), MessageId(1, 2)])
        assert store.lookup_count == 2
        assert store.rcv_call_count == 1
        # Miss on the first probe stops the scan.
        store.rcv([MessageId(9, 9), MessageId(1, 1)])
        assert store.lookup_count == 3
        assert store.rcv_call_count == 2

    def test_plain_has_does_not_count(self):
        store = empty_store()
        store.add(msg(1, 1))
        store.has(MessageId(1, 1))
        assert store.lookup_count == 0

    @given(
        st.sets(st.tuples(st.integers(1, 9), st.integers(1, 99)), max_size=25),
        st.sets(st.tuples(st.integers(1, 9), st.integers(1, 99)), max_size=25),
    )
    def test_rcv_equals_subset_check(self, have, want):
        """rcv(v) <=> v ⊆ received — the definitional property."""
        store = empty_store()
        for origin, seq in have:
            store.add(msg(origin, seq))
        want_ids = [MessageId(o, s) for o, s in want]
        assert store.rcv(want_ids) == set(want_ids).issubset(store.snapshot_ids())
