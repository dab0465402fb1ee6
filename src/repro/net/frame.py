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
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple

from repro.core.identifiers import ProcessId

#: Fixed per-frame header charged on top of the protocol body
#: (UDP/IP-style framing).
FRAME_HEADER_SIZE = 28

#: The one frame numbering.  ``Network.multicast`` uses it and
#: ``_tuple_new`` too, to build a frame's tuple inline.
_next_seq = itertools.count(1).__next__
_tuple_new = tuple.__new__


class _FrameFields(NamedTuple):
    src: ProcessId
    dst: ProcessId
    kind: str
    body: Any
    size: int
    control: bool
    seq: int


class Frame(_FrameFields):
    """One datagram in flight from ``src`` to ``dst``.

    Immutable, and a tuple underneath: the simulator builds one per
    destination of every multicast, so construction is a single
    C-level tuple allocation rather than a per-field ``__setattr__``.

    Attributes:
        src: Sending process.
        dst: Destination process.
        kind: Routing key, e.g. ``"rb.data"`` or ``"cons.ack"``.  The
            receiving transport dispatches on this string.
        body: Protocol payload (any picklable value; never inspected by
            the network).
        size: Protocol-level size in bytes, *excluding* the frame header.
        control: True for small protocol-control traffic (consensus
            rounds, acks, heartbeats); False for application data.  Some
            network policies treat the two classes differently, mirroring
            the separate sockets/channels a real stack uses per layer.
        seq: Globally unique frame number (diagnostics, determinism
            tie-break); auto-numbered unless given.
    """

    __slots__ = ()

    def __new__(
        cls,
        src: ProcessId,
        dst: ProcessId,
        kind: str,
        body: Any,
        size: int,
        control: bool = True,
        seq: int | None = None,
    ) -> "Frame":
        return _tuple_new(
            cls,
            (src, dst, kind, body, size, control,
             _next_seq() if seq is None else seq),
        )

    def wire_size(self) -> int:
        """Bytes actually occupying the wire: body plus frame header."""
        return self.size + FRAME_HEADER_SIZE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Frame#{self.seq}({self.kind} p{self.src}->p{self.dst}, {self.size}B)"
