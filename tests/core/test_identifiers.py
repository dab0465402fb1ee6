"""Tests for message identifiers and their canonical ordering."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.identifiers import (
    MESSAGE_ID_WIRE_SIZE,
    MessageId,
    id_set_wire_size,
    order_id_set,
)

mids = st.builds(
    MessageId,
    origin=st.integers(min_value=1, max_value=50),
    seq=st.integers(min_value=1, max_value=10_000),
)


class TestMessageId:
    def test_equality_is_structural(self):
        assert MessageId(1, 7) == MessageId(1, 7)
        assert MessageId(1, 7) != MessageId(2, 7)
        assert MessageId(1, 7) != MessageId(1, 8)

    def test_hashable_and_usable_in_sets(self):
        s = {MessageId(1, 1), MessageId(1, 1), MessageId(2, 1)}
        assert len(s) == 2

    def test_ordering_is_lexicographic(self):
        assert MessageId(1, 9) < MessageId(2, 1)
        assert MessageId(1, 1) < MessageId(1, 2)

    def test_wire_size_is_constant(self):
        assert MessageId(1, 1).wire_size() == MESSAGE_ID_WIRE_SIZE
        assert MessageId(999, 10**9).wire_size() == MESSAGE_ID_WIRE_SIZE

    def test_str_is_compact(self):
        assert str(MessageId(3, 42)) == "m3.42"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            MessageId(1, 1).seq = 5  # type: ignore[misc]
        with pytest.raises(AttributeError):
            MessageId(1, 1).payload = b""  # type: ignore[attr-defined]

    def test_repr_names_both_fields(self):
        """Explorer fingerprints and checker messages embed this string."""
        assert repr(MessageId(origin=1, seq=2)) == "MessageId(origin=1, seq=2)"
        assert repr(MessageId(3, 42)) == "MessageId(origin=3, seq=42)"

    def test_equal_ids_hash_equal(self):
        a, b = MessageId(4, 9), MessageId(origin=4, seq=9)
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    def test_sorted_matches_the_origin_seq_key(self):
        rng = random.Random(13)
        ids = [
            MessageId(rng.randint(1, 9), rng.randint(1, 500))
            for _ in range(300)
        ]
        assert sorted(ids) == sorted(ids, key=lambda m: (m.origin, m.seq))

    def test_pickle_round_trip(self):
        mid = MessageId(origin=7, seq=123)
        clone = pickle.loads(pickle.dumps(mid))
        assert type(clone) is MessageId
        assert clone == mid and clone.origin == 7 and clone.seq == 123


class TestOrderIdSet:
    def test_orders_sorted(self):
        ids = {MessageId(2, 1), MessageId(1, 2), MessageId(1, 1)}
        assert order_id_set(ids) == (
            MessageId(1, 1),
            MessageId(1, 2),
            MessageId(2, 1),
        )

    def test_empty(self):
        assert order_id_set([]) == ()

    def test_thousand_shuffled_ids(self):
        expected = tuple(
            MessageId(origin, seq)
            for origin in range(1, 11)
            for seq in range(1, 101)
        )
        shuffled = list(expected)
        random.Random(5).shuffle(shuffled)
        assert order_id_set(set(shuffled)) == expected

    @given(st.frozensets(mids, max_size=30))
    def test_deterministic_regardless_of_input_order(self, ids):
        """Line 20 of Algorithm 1: every process must derive the same
        sequence from the same decided set."""
        as_list = sorted(ids, key=lambda m: (m.seq, m.origin))  # scrambled
        assert order_id_set(ids) == order_id_set(as_list)
        assert order_id_set(ids) == tuple(sorted(ids))

    @given(st.frozensets(mids, max_size=30))
    def test_permutation_preserving(self, ids):
        assert set(order_id_set(ids)) == set(ids)
        assert len(order_id_set(ids)) == len(ids)


class TestIdSetWireSize:
    def test_scales_with_cardinality_not_payload(self):
        """The paper's whole argument: identifier traffic is constant per
        message regardless of payload size."""
        ids = [MessageId(1, i) for i in range(10)]
        assert id_set_wire_size(ids) == 10 * MESSAGE_ID_WIRE_SIZE

    def test_empty_set_is_free(self):
        assert id_set_wire_size([]) == 0

    @given(st.frozensets(mids, max_size=100))
    def test_linear_in_cardinality(self, ids):
        assert id_set_wire_size(ids) == len(ids) * MESSAGE_ID_WIRE_SIZE
