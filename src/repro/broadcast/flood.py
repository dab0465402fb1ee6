"""Flooding reliable broadcast — O(n^2) messages per broadcast.

The textbook algorithm (Chandra & Toueg [2], Hadzilacos & Toueg [5]):
the origin sends the message to every process; every process relays the
message to every other process the first time it receives it, then
delivers.  Agreement holds because any process that delivers has first
relayed to everybody, so if *any* correct process delivers ``m``, all
correct processes do — no failure detector needed, at the price of
``n * (n - 1)`` data frames per broadcast.

This is the "Reliable broadcast in O(n^2) messages" configuration of
Figures 5 and 7a.
"""

from __future__ import annotations

from repro.broadcast.base import BroadcastService
from repro.core.message import AppMessage
from repro.net.frame import Frame
from repro.net.transport import Transport


class FloodReliableBroadcast(BroadcastService):
    """Relay-on-first-receipt reliable broadcast."""

    KIND = "rb2.data"
    uniform = False

    def __init__(self, transport: Transport) -> None:
        super().__init__(transport)
        transport.register(self.KIND, self._on_data)

    def _diffuse(self, message: AppMessage) -> None:
        # Origin path: deliver locally, then send to every other process.
        # The local delivery happens first (a correct origin must deliver
        # its own message even if every frame it sends is subsequently
        # lost to its own crash).
        self._deliver(message)
        self.transport.send_all(
            self.KIND,
            body=message,
            size=message.wire_size(),
            include_self=False,
        )

    def _on_data(self, frame: Frame) -> None:
        message: AppMessage = frame.body
        mid = message.mid
        origin, seq = mid
        delivered = self._delivered
        if seq <= delivered.through[origin] or mid in delivered.above:
            return
        # Relay before delivering: by the time the upper layer reacts,
        # the copies that make Agreement hold are already on their way.
        self.transport.send_all(
            self.KIND,
            body=message,
            size=message.wire_size(),
            include_self=False,
        )
        self._deliver(message)
