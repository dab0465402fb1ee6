"""Frame as an immutable value: what construction must keep.

``tests/net/test_frame_and_setups.py`` pins the basics (header size,
auto-numbering, the control default, rejected assignment); this module
pins what the rest of the system leans on when it treats a frame as a
plain value — equality, pickling across the sweep pool, and the two
spellings of the constructor.
"""

import pickle

import pytest

from repro.net.frame import FRAME_HEADER_SIZE, Frame


def test_positional_and_keyword_construction_agree():
    by_name = Frame(src=1, dst=2, kind="rb.data", body=("x", 3), size=64,
                    control=False, seq=9)
    by_position = Frame(1, 2, "rb.data", ("x", 3), 64, False, 9)
    assert by_name == by_position
    assert (by_name.src, by_name.dst, by_name.kind) == (1, 2, "rb.data")
    assert (by_name.body, by_name.size) == (("x", 3), 64)
    assert by_name.control is False and by_name.seq == 9
    assert by_name.wire_size() == 64 + FRAME_HEADER_SIZE


def test_auto_numbered_seq_is_strictly_increasing():
    seqs = [Frame(1, 2, "k", None, 0).seq for _ in range(50)]
    assert all(later > earlier for earlier, later in zip(seqs, seqs[1:]))


def test_explicit_seq_does_not_consume_a_number():
    before = Frame(1, 2, "k", None, 0).seq
    Frame(1, 2, "k", None, 0, seq=10**9)
    assert Frame(1, 2, "k", None, 0).seq == before + 1


def test_no_attribute_can_be_set_or_added():
    frame = Frame(1, 2, "k", None, 0)
    for name in ("src", "dst", "kind", "body", "size", "control", "seq"):
        with pytest.raises(AttributeError):
            setattr(frame, name, 1)
    with pytest.raises(AttributeError):
        frame.extra = 1  # type: ignore[attr-defined]


def test_equality_and_hash_cover_every_field_including_seq():
    frame = Frame(1, 2, "k", "body", 8, seq=5)
    assert frame == Frame(1, 2, "k", "body", 8, seq=5)
    assert hash(frame) == hash(Frame(1, 2, "k", "body", 8, seq=5))
    assert frame != Frame(1, 2, "k", "body", 8, seq=6)
    assert frame != Frame(1, 3, "k", "body", 8, seq=5)


def test_pickle_round_trip_keeps_type_and_seq():
    frame = Frame(3, 1, "cti.ack", (4, 1), 12)
    clone = pickle.loads(pickle.dumps(frame))
    assert type(clone) is Frame
    assert clone == frame and clone.seq == frame.seq


def test_repr_names_every_field():
    assert repr(Frame(1, 2, "k", None, 0, seq=7)) == (
        "Frame(src=1, dst=2, kind='k', body=None, size=0, control=True, "
        "seq=7)"
    )
