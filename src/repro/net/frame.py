"""Network frames.

A :class:`Frame` is one point-to-point datagram: source, destination, a
``kind`` string that routes it to the right protocol handler on arrival,
an opaque ``body``, and — crucially — an explicit ``size`` in bytes.

The size is supplied by the sending protocol layer and is what the
network models charge for.  Keeping it explicit (instead of serializing
real buffers) is what lets the simulation push millions of messages per
second of simulated traffic while still modelling, byte for byte, the
difference between shipping full payloads and shipping 12-byte message
identifiers.

Whether a frame is bulk data or protocol control is read off its kind
(:func:`is_data_kind`), never stored beside it.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.core.identifiers import ProcessId

#: Fixed per-frame header charged on top of the protocol body
#: (UDP/IP-style framing).
FRAME_HEADER_SIZE = 28

#: ``Network.multicast`` builds each frame's tuple inline with it.
_tuple_new = tuple.__new__


def is_data_kind(kind: str) -> bool:
    """The data-versus-control rule: a ``.data`` frame kind carries bulk
    payload diffusion (the rb/urb/sequencer data planes); any other is
    control (consensus rounds, acks, heartbeats).

    The one classifier: fault rules (``LinkRule.control``), the
    explorer's data-only defers and the traffic probe all use it.
    """
    return kind.endswith(".data")


class Frame(NamedTuple):
    """One datagram in flight from ``src`` to ``dst``.

    Immutable, and a plain tuple underneath: the simulator builds one
    per destination of every multicast, so construction is a single
    C-level tuple allocation rather than a per-field ``__setattr__``.
    Two frames with equal fields are equal.

    Attributes:
        src: Sending process.
        dst: Destination process.
        kind: Routing key, e.g. ``"rb1.data"`` or ``"cti.ack"``.  The
            receiving transport dispatches on this string, and its
            ``.data`` suffix marks bulk data (:func:`is_data_kind`).
        body: Protocol payload (any picklable value; never inspected by
            the network).
        size: Protocol-level size in bytes, *excluding* the frame header.
    """

    src: ProcessId
    dst: ProcessId
    kind: str
    body: Any
    size: int

    def wire_size(self) -> int:
        """Bytes actually occupying the wire: body plus frame header."""
        return self.size + FRAME_HEADER_SIZE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Frame({self.kind} p{self.src}->p{self.dst}, {self.size}B)"
