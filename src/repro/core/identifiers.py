"""Process and message identifiers.

The paper considers a static set of processes ``Pi = {p1, ..., pn}`` and
gives every atomically-broadcast message ``m`` a unique identifier
``id(m)``.  The whole point of *indirect consensus* is that consensus is
executed on these identifiers instead of on the (potentially large)
messages themselves, so identifiers are first-class values here.

Identifiers are small, hashable and totally ordered.  The total order on
:class:`MessageId` is also what Algorithm 1 uses at line 20 ("elements of
``idSet_k`` in some deterministic order") to turn a decided *set* of
identifiers into a delivery *sequence*.
"""

from __future__ import annotations

from typing import Collection, Iterable, NamedTuple

#: Processes are identified by 1-based integers, matching the paper's
#: ``p1 .. pn`` convention (the round-robin coordinator of round ``r`` is
#: ``(r mod n) + 1``).
ProcessId = int

#: Wire size of one serialized message identifier, in bytes.  Two 32-bit
#: integers (origin, sequence) plus framing.  This is the quantity that
#: stays constant as application payloads grow, which is the entire
#: performance argument of the paper.
MESSAGE_ID_WIRE_SIZE = 12


class MessageId(NamedTuple):
    """Unique identifier of an atomically-broadcast message.

    The identifier is the pair ``(origin, seq)``: the process that called
    ``abroadcast`` and a per-origin sequence number.  The mapping between
    messages and identifiers is bijective, as the paper requires, because
    every origin numbers its own messages consecutively.

    Ordering is lexicographic on ``(origin, seq)``.  Any deterministic
    order works for Algorithm 1 line 20; lexicographic is the natural one
    and is what the reproduction uses everywhere.

    A named tuple, so hashing, equality and comparison run in C: sets
    and dicts of identifiers are what consensus, ``rcv`` and the
    delivery queues probe per message.
    """

    origin: ProcessId
    seq: int

    def wire_size(self) -> int:
        """Serialized size in bytes (constant, payload-independent)."""
        return MESSAGE_ID_WIRE_SIZE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"m{self.origin}.{self.seq}"


def order_id_set(ids: Iterable[MessageId]) -> tuple[MessageId, ...]:
    """Return the identifiers of ``ids`` in the canonical deterministic order.

    This implements line 20 of Algorithm 1: the decided set ``idSet_k`` is
    turned into the sequence ``idSeq_k`` using a deterministic order shared
    by all processes, so that every process appends the same sequence to
    its ``ordered_p`` delivery queue.
    """
    return tuple(sorted(ids))


def id_set_wire_size(ids: Collection[MessageId]) -> int:
    """Total serialized size of a set of identifiers, in bytes.

    Takes a sized collection (a set, frozenset, list or tuple), not a
    one-shot iterator: every identifier costs the same
    :data:`MESSAGE_ID_WIRE_SIZE`, so the size is ``len(ids)`` times that
    constant, computed without visiting the elements.
    """
    return len(ids) * MESSAGE_ID_WIRE_SIZE


class IdWatermark:
    """A grow-only set of :class:`MessageId`, in memory that does not
    grow with run length.

    Every origin numbers its messages ``1, 2, ...``, and the delivered-id
    sets of the protocol layers end up holding almost every prefix of
    those sequences.  So the set is stored as ``through[origin]`` — the
    largest ``s`` such that ``(origin, 1) .. (origin, s)`` are all
    members — plus ``above``, the members past their origin's
    watermark (ids delivered out of origin order, and those of a
    crashed origin whose predecessor never arrived).

    The per-frame paths of the protocol layers test and insert inline
    on ``through`` and ``above`` (see ``BroadcastService._deliver``);
    ``in``, ``len`` and :meth:`add` are for everything else.

    Args:
        n: Group size: the origins are the process ids ``1 .. n``.
    """

    __slots__ = ("through", "above")

    def __init__(self, n: int) -> None:
        self.through: list[int] = [0] * (n + 1)
        self.above: set[MessageId] = set()

    def __contains__(self, mid: object) -> bool:
        origin, seq = mid  # type: ignore[misc]
        return seq <= self.through[origin] or mid in self.above

    def __len__(self) -> int:
        return sum(self.through) + len(self.above)

    def add(self, mid: MessageId) -> None:
        """Insert ``mid``: extend its origin's watermark, absorbing the
        members parked just above it, or park it above."""
        origin, seq = mid
        through = self.through
        if seq == through[origin] + 1:
            above = self.above
            while above and (origin, seq + 1) in above:
                seq += 1
                above.remove((origin, seq))
            through[origin] = seq
        elif seq > through[origin]:
            self.above.add(mid)
