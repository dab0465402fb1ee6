"""Application-level messages.

An :class:`AppMessage` is what a client hands to ``abroadcast``.  For the
performance experiments only its *size* matters (the paper sweeps payload
sizes from 1 byte to 5000 bytes), so payloads are represented by a
length plus an optional small content tag rather than real byte buffers;
this keeps multi-million-message simulations cheap while charging the
network model the exact number of bytes the real system would ship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.identifiers import MessageId

#: Bytes of framing added to every application message on the wire
#: (identifier + length field), independent of the payload.
APP_MESSAGE_HEADER_SIZE = 16


@dataclass(frozen=True, slots=True)
class Payload:
    """A payload of ``size`` bytes with an opaque ``content`` tag.

    ``content`` is carried around untouched; examples use it to ship real
    application values (e.g. replicated-state-machine commands) through
    the stack, while benchmarks leave it ``None`` and only the ``size``
    participates in the network cost model.
    """

    size: int
    content: Any = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"payload size must be >= 0, got {self.size}")


def make_payload(size: int, content: Any = None) -> Payload:
    """Build a :class:`Payload` of ``size`` bytes.

    Provided as a function (rather than asking callers to construct the
    dataclass) so that example code reads like the paper's workload
    description: ``abcast.abroadcast(make_payload(1000))``.
    """
    return Payload(size=size, content=content)


@dataclass(frozen=True, slots=True)
class AppMessage:
    """An atomically-broadcast application message ``m``.

    Each fact is held once: the sender is ``mid.origin`` and the time
    of ``abroadcast`` is the trace's ``ABroadcastEvent`` for it.

    Attributes:
        mid: The unique identifier ``id(m)``, which names the sender.
        payload: Application payload (size drives the network model).
    """

    mid: MessageId
    payload: Payload

    def wire_size(self) -> int:
        """Serialized size of the full message, in bytes."""
        return APP_MESSAGE_HEADER_SIZE + self.payload.size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"AppMessage({self.mid}, {self.payload.size}B)"
