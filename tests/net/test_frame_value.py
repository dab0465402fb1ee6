"""Frame as an immutable value: what construction must keep.

``tests/net/test_frame_and_setups.py`` pins the basics (header size,
rejected assignment); this module pins what the rest of the system
leans on when it treats a frame as a plain value — its five fields,
equality by content, pickling across the sweep pool, the two spellings
of the constructor, and the kind rule that says data from control.
"""

import pickle

import pytest

from repro.net.frame import FRAME_HEADER_SIZE, Frame, is_data_kind

FIELDS = ("src", "dst", "kind", "body", "size")


def test_a_frame_is_its_five_fields():
    assert Frame._fields == FIELDS
    assert tuple(Frame(1, 2, "k", None, 0)) == (1, 2, "k", None, 0)


def test_positional_and_keyword_construction_agree():
    by_name = Frame(src=1, dst=2, kind="rb.data", body=("x", 3), size=64)
    by_position = Frame(1, 2, "rb.data", ("x", 3), 64)
    assert by_name == by_position
    assert (by_name.src, by_name.dst, by_name.kind) == (1, 2, "rb.data")
    assert (by_name.body, by_name.size) == (("x", 3), 64)
    assert by_name.wire_size() == 64 + FRAME_HEADER_SIZE


def test_no_attribute_can_be_set_or_added():
    frame = Frame(1, 2, "k", None, 0)
    for name in FIELDS:
        with pytest.raises(AttributeError):
            setattr(frame, name, 1)
    with pytest.raises(AttributeError):
        frame.extra = 1  # type: ignore[attr-defined]


def test_equal_content_frames_compare_equal():
    frame = Frame(1, 2, "k", "body", 8)
    assert frame == Frame(1, 2, "k", "body", 8)
    assert hash(frame) == hash(Frame(1, 2, "k", "body", 8))
    assert frame != Frame(1, 3, "k", "body", 8)
    assert frame != Frame(1, 2, "k", "body", 9)


def test_pickle_round_trip_keeps_type_and_fields():
    frame = Frame(3, 1, "cti.ack", (4, 1), 12)
    clone = pickle.loads(pickle.dumps(frame))
    assert type(clone) is Frame
    assert clone == frame


def test_repr_names_every_field():
    assert repr(Frame(1, 2, "k", None, 0)) == (
        "Frame(src=1, dst=2, kind='k', body=None, size=0)"
    )


def test_the_kind_says_data_or_control():
    for kind in (
        "rb1.data", "rb2.data", "urb.data", "seq.order.data", "seq.seal.data",
    ):
        assert is_data_kind(kind)
    for kind in ("cti.ack", "mri.echo", "fd.heartbeat", "seq.wedge", "data"):
        assert not is_data_kind(kind)
