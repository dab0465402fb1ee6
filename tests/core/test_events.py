"""The contract of the protocol event records.

Every event class gets a hand-installed ``__init__`` that writes its
slots through the member descriptors (construction is on the per-event
hot path).  These tests pin what that ``__init__`` must keep from the
dataclass-generated one: positional and keyword construction agree,
defaults hold, ``dataclasses.replace`` works, and the classes stay
frozen, hashable and equal by value.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    CrashEvent,
    DecideEvent,
    ProposeEvent,
    RBroadcastEvent,
    RDeliverEvent,
)
from repro.core.identifiers import MessageId
from repro.core.message import AppMessage, make_payload

MESSAGE = AppMessage(MessageId(2, 5), make_payload(64))
IDS = frozenset({MessageId(1, 1), MessageId(2, 5)})

#: (class, positional arguments, the same as keywords): every field given.
CASES = [
    (ABroadcastEvent, (1.5, 2, MESSAGE),
     dict(time=1.5, process=2, message=MESSAGE)),
    (ADeliverEvent, (1.5, 3, MESSAGE),
     dict(time=1.5, process=3, message=MESSAGE)),
    (RBroadcastEvent, (1.5, 2, MESSAGE, True),
     dict(time=1.5, process=2, message=MESSAGE, uniform=True)),
    (RDeliverEvent, (1.5, 1, MESSAGE, True),
     dict(time=1.5, process=1, message=MESSAGE, uniform=True)),
    (ProposeEvent, (1.5, 1, 7, IDS),
     dict(time=1.5, process=1, instance=7, value=IDS)),
    (DecideEvent, (1.5, 1, 7, IDS),
     dict(time=1.5, process=1, instance=7, value=IDS)),
    (CrashEvent, (1.5, 3), dict(time=1.5, process=3)),
]
IDS_OF = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,args,kwargs", CASES, ids=IDS_OF)
class TestEventContract:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs):
        positional, keyword = cls(*args), cls(**kwargs)
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert {f.name: getattr(positional, f.name)
                for f in dataclasses.fields(cls)} == kwargs
        assert repr(positional) == repr(keyword)

    def test_replace_builds_an_equal_but_changed_copy(self, cls, args, kwargs):
        event = cls(*args)
        moved = dataclasses.replace(event, time=9.0)
        assert moved.time == 9.0 and moved != event
        assert dataclasses.replace(moved, time=event.time) == event

    def test_fields_are_frozen(self, cls, args, kwargs):
        event = cls(*args)
        for name in kwargs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, name, None)
        assert event == cls(*args)

    def test_pickle_round_trip(self, cls, args, kwargs):
        event = cls(*args)
        assert pickle.loads(pickle.dumps(event)) == event

    def test_missing_field_is_a_type_error(self, cls, args, kwargs):
        with pytest.raises(TypeError):
            cls(*args[:1])


def test_defaults_hold():
    assert RBroadcastEvent(0.0, 1, MESSAGE).uniform is False
    assert RDeliverEvent(0.0, 1, MESSAGE).uniform is False
    assert RDeliverEvent(time=0.0, process=1, message=MESSAGE).uniform is False
    decide = DecideEvent(0.0, 1, 3, IDS)
    assert decide == DecideEvent(time=0.0, process=1, instance=3, value=IDS)


def test_decide_event_has_no_holders_field():
    # The trace derives holders from its r-deliveries (``holders_at``).
    assert [f.name for f in dataclasses.fields(DecideEvent)] == [
        "time", "process", "instance", "value",
    ]
    with pytest.raises(TypeError):
        DecideEvent(0.0, 1, 3, IDS, frozenset({1}))


def test_classes_of_equal_fields_stay_distinct():
    # Equality is by class and value, as the dataclass defines it.
    assert ABroadcastEvent(1.0, 1, MESSAGE) != ADeliverEvent(1.0, 1, MESSAGE)
