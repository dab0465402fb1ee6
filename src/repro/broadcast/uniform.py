"""Uniform reliable broadcast — majority ack, 2 steps, O(n^2) messages.

The all-ack algorithm (Hadzilacos & Toueg [5]): the origin sends the
message to everybody; on first receipt every process relays the full
message to everybody; a process **urb-delivers** only once it has
received the message from a majority (``⌈(n+1)/2⌉``) of distinct
processes, itself included.

Uniformity: if *any* process — even one that crashes right after — has
delivered ``m``, a majority held copies at that moment; at least one
member of that majority is correct (``f < n/2``) and its relay reaches
all correct processes, each of which then also collects a majority.

The paper uses this algorithm as the diffusion layer of the correct
alternative to indirect consensus (Section 4.4): it "supports up to
f < n/2 crash-failures and requires O(n^2) messages and 2 communication
steps" — one step more than reliable broadcast, which is the latency gap
Figures 5-7 measure.
"""

from __future__ import annotations

from repro.broadcast.base import BroadcastService
from repro.core.config import SystemConfig
from repro.core.identifiers import MessageId
from repro.core.message import AppMessage
from repro.net.frame import Frame
from repro.net.transport import Transport


class UniformReliableBroadcast(BroadcastService):
    """Majority-ack uniform reliable broadcast."""

    KIND = "urb.data"
    uniform = True

    def __init__(self, transport: Transport, config: SystemConfig) -> None:
        super().__init__(transport)
        self.config = config
        #: Distinct holders that make a copy deliverable: ``⌈(n+1)/2⌉``.
        self.majority = config.majority_quorum
        self._pending: dict[MessageId, AppMessage] = {}
        self._seen_from: dict[MessageId, set[int]] = {}
        transport.register(self.KIND, self._on_data)

    def _diffuse(self, message: AppMessage) -> None:
        # The origin counts itself as the first witnessed holder, then
        # relays to everybody.  It can only deliver once a majority of
        # holders is witnessed, i.e. after at least one full round trip
        # — the extra communication step uniformity costs the sender,
        # which is what Section 4.4's latency comparison measures.
        self._note_copy(message, holder=self.pid)
        self.transport.send_all(
            self.KIND,
            body=message,
            size=message.wire_size(),
            include_self=False,
            control=False,
        )

    def _on_data(self, frame: Frame) -> None:
        message: AppMessage = frame.body
        mid = message.mid
        origin, seq = mid
        delivered = self._delivered
        if seq <= delivered.through[origin] or mid in delivered.above:
            return
        first_copy = mid not in self._seen_from
        self._note_copy(message, holder=frame.src)
        if first_copy:
            # First receipt: count ourselves and relay the full message
            # (the second communication step / O(n^2) message cost).
            self._note_copy(message, holder=self.pid)
            self.transport.send_all(
                self.KIND,
                body=message,
                size=message.wire_size(),
                include_self=False,
                control=False,
            )

    def _note_copy(self, message: AppMessage, holder: int) -> None:
        """Record that ``holder`` provably has ``message``; deliver once a
        majority of *distinct senders* (never this process itself) has
        been witnessed."""
        mid = message.mid
        origin, seq = mid
        delivered = self._delivered
        if seq <= delivered.through[origin] or mid in delivered.above:
            return
        self._pending[mid] = message
        holders = self._seen_from.setdefault(mid, set())
        holders.add(holder)
        if len(holders) >= self.majority:
            self._pending.pop(mid, None)
            self._deliver(message)
