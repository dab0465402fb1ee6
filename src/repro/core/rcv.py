"""The ``rcv`` predicate and the store of received messages.

Indirect consensus proposals are pairs ``(v, rcv)`` where ``v`` is a set
of message identifiers and ``rcv`` is a function such that ``rcv(v)``
returns true only if the calling process has received the messages
``msgs(v)`` (Section 2.3 of the paper).  The atomic broadcast algorithm
supplies the function (Algorithm 1, lines 9-10): it simply looks every
identifier up in the process's ``received_p`` set.

Hypothesis A — "if ``rcv(v)`` is true for a correct process, then it is
eventually true for all correct processes" — is discharged by the
Agreement property of the underlying reliable broadcast, which is what
populates the store.  The trace checkers verify this end to end.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

from repro.core.identifiers import IdWatermark, MessageId
from repro.core.message import AppMessage

#: Type of the ``rcv`` predicate handed to ``propose(v, rcv)``.
RcvFunction = Callable[[Iterable[MessageId]], bool]


class ReceivedStoreProbe(Protocol):
    """Read-only view of a process's received-message store."""

    def has(self, mid: MessageId) -> bool: ...  # pragma: no cover

    def get(self, mid: MessageId) -> AppMessage | None: ...  # pragma: no cover


class ReceivedStore:
    """The ``received_p`` set of Algorithm 1, with cost accounting.

    Besides answering membership queries, the store counts how many
    identifier lookups the ``rcv`` predicate performs.  The performance
    sections of the paper attribute the measurable overhead of indirect
    consensus to exactly these lookups ("the calls to the rcv function
    ... take more and more time" as throughput grows), so the simulation
    charges CPU time per lookup; the counter is how the protocol layer
    learns the bill.

    ``received_p`` only grows, but a payload is needed only until its
    message is adelivered: :meth:`take` hands it to the delivery and
    drops it, and the id stays received through ``adelivered``, the
    atomic broadcast layer's watermark of delivered ids.  Membership
    (``has``, ``in``, ``rcv``, ``add``) answers exactly as if every
    payload were still held, with the same lookup counts.

    Args:
        adelivered: The ids whose payloads have been taken.
    """

    __slots__ = ("_messages", "adelivered", "lookup_count", "rcv_call_count")

    def __init__(self, adelivered: IdWatermark) -> None:
        #: Payloads received and not yet adelivered.
        self._messages: dict[MessageId, AppMessage] = {}
        self.adelivered = adelivered
        #: Total individual identifier membership checks performed by rcv().
        self.lookup_count = 0
        #: Total invocations of the rcv() predicate.
        self.rcv_call_count = 0

    def add(self, message: AppMessage) -> bool:
        """Record an R-delivered message; return False if already received
        (a late copy of an adelivered message is not stored again)."""
        mid = message.mid
        if mid in self._messages:
            return False
        origin, seq = mid
        adelivered = self.adelivered
        if seq <= adelivered.through[origin] or mid in adelivered.above:
            return False
        self._messages[mid] = message
        return True

    def has(self, mid: MessageId) -> bool:
        """Membership test that does *not* count as an rcv() lookup."""
        return mid in self._messages or mid in self.adelivered

    def get(self, mid: MessageId) -> AppMessage | None:
        """Return the held payload for ``mid``: None if it was never
        received or has been taken by its adelivery."""
        return self._messages.get(mid)

    def take(self, mid: MessageId) -> AppMessage | None:
        """Remove and return the held payload for ``mid`` (or None).

        The caller adelivers it and records ``mid`` in ``adelivered``
        before anything else can query the store."""
        return self._messages.pop(mid, None)

    def __len__(self) -> int:
        return len(self._messages) + len(self.adelivered)

    def __contains__(self, mid: MessageId) -> bool:
        return self.has(mid)

    def rcv(self, ids: Iterable[MessageId]) -> bool:
        """The ``rcv`` predicate of Algorithm 1 (lines 9-10).

        ``rcv(ids)`` is true iff every identifier in ``ids`` has a
        corresponding message in the store.  Every individual lookup is
        counted so the simulation can charge CPU time for it.
        """
        self.rcv_call_count += 1
        messages = self._messages
        through = self.adelivered.through
        above = self.adelivered.above
        result = True
        for mid in ids:
            self.lookup_count += 1
            if mid not in messages:
                # Inline IdWatermark membership: no call per lookup.
                origin, seq = mid
                if seq > through[origin] and mid not in above:
                    result = False
                    break
        return result

    def missing(self, ids: Iterable[MessageId]) -> frozenset[MessageId]:
        """Identifiers in ``ids`` whose messages have not been received.

        Used by diagnostics and by the wait-instead-of-nack ablation of
        the CT-indirect algorithm.
        """
        return frozenset(mid for mid in ids if not self.has(mid))

    def snapshot_ids(self) -> frozenset[MessageId]:
        """All identifiers received so far (for checkers and tests)."""
        adelivered = self.adelivered
        return frozenset(
            [
                MessageId(origin, seq)
                for origin, through in enumerate(adelivered.through)
                for seq in range(1, through + 1)
            ]
        ).union(adelivered.above, self._messages)
