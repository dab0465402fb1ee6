"""Tests for payloads and application messages."""

import dataclasses
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.identifiers import MessageId
from repro.core.message import APP_MESSAGE_HEADER_SIZE, AppMessage, make_payload


class TestPayload:
    def test_make_payload(self):
        p = make_payload(100, content={"op": "set"})
        assert p.size == 100
        assert p.content == {"op": "set"}

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            make_payload(-1)

    def test_zero_size_allowed(self):
        assert make_payload(0).size == 0


class TestAppMessage:
    def test_a_message_is_its_id_and_payload(self):
        """``id(m)`` names the sender and the trace times the
        abroadcast, so a message holds neither a second time."""
        names = [f.name for f in dataclasses.fields(AppMessage)]
        assert names == ["mid", "payload"]
        assert AppMessage.__slots__ == ("mid", "payload")

    @pytest.mark.parametrize(
        "field,value", [("sender", 1), ("sent_at", 0.5)]
    )
    def test_dropped_fields_are_not_accepted(self, field, value):
        with pytest.raises(TypeError):
            AppMessage(mid=MessageId(1, 1), payload=make_payload(1),
                       **{field: value})

    def test_payload_is_required(self):
        with pytest.raises(TypeError):
            AppMessage(mid=MessageId(1, 1))  # type: ignore[call-arg]

    def test_a_held_message_is_two_references(self):
        """A retained message costs what a bare two-slot object does:
        no boxed timestamp and no sender beside its id."""

        class TwoSlots:
            __slots__ = ("a", "b")

        m = AppMessage(mid=MessageId(1, 1), payload=make_payload(1))
        assert sys.getsizeof(m) == sys.getsizeof(TwoSlots())

    def test_wire_size_adds_header(self):
        m = AppMessage(mid=MessageId(1, 1), payload=make_payload(100))
        assert m.wire_size() == APP_MESSAGE_HEADER_SIZE + 100

    def test_messages_hashable_by_identity_fields(self):
        a = AppMessage(mid=MessageId(1, 1), payload=make_payload(5))
        b = AppMessage(mid=MessageId(1, 1), payload=make_payload(5))
        assert a == b
        assert len({a, b}) == 1

    @given(st.integers(0, 100_000))
    def test_wire_size_monotone_in_payload(self, size):
        m = AppMessage(mid=MessageId(1, 1), payload=make_payload(size))
        assert m.wire_size() == APP_MESSAGE_HEADER_SIZE + size
