"""Common machinery of the broadcast services.

Every broadcast algorithm shares the same external contract:

* ``broadcast(message)`` — the ``rbroadcast`` / ``urbroadcast`` primitive;
* ``on_deliver(callback)`` — subscription to ``rdeliver`` / ``urbdeliver``;
* at-most-once delivery per message id;
* trace records for every broadcast and delivery.

Subclasses implement the diffusion strategy (:meth:`_diffuse`) and the
receive path, calling :meth:`_deliver` exactly when their delivery
condition is met.
"""

from __future__ import annotations

from typing import Callable

from repro.core.identifiers import IdWatermark, MessageId
from repro.core.message import AppMessage
from repro.net.transport import Transport

DeliverCallback = Callable[[AppMessage], None]


class BroadcastService:
    """Base class for the three broadcast algorithms.

    Attributes:
        transport: The process's network endpoint.
        uniform: Whether this service claims the *uniform* agreement
            property (stamped on trace events so checkers apply the
            right property set).
    """

    #: Frame-kind prefix; subclasses override (e.g. ``"rb2"``, ``"urb"``).
    KIND: str = "bcast"
    uniform: bool = False

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.process = transport.process
        self.engine = transport.process.engine
        self.pid = transport.pid
        #: Ids delivered here (at-most-once), as per-origin watermarks.
        self._delivered = IdWatermark(len(transport.peers))
        self._callbacks: list[DeliverCallback] = []

    def on_deliver(self, callback: DeliverCallback) -> None:
        """Register a delivery callback (called in registration order)."""
        self._callbacks.append(callback)

    def close(self) -> None:
        """Drop the delivery callbacks; part of
        :meth:`~repro.stack.builder.System.close`."""
        self._callbacks = []

    def broadcast(self, message: AppMessage) -> None:
        """Broadcast ``message`` to the group (Validity: a correct sender
        eventually delivers its own message)."""
        if self.process.crashed:
            return
        self.process.trace.rbroadcast(
            self.engine.now, self.pid, message, self.uniform
        )
        self._diffuse(message)

    def _diffuse(self, message: AppMessage) -> None:
        raise NotImplementedError

    def has_delivered(self, mid: MessageId) -> bool:
        """True iff this process already delivered the message ``mid``."""
        return mid in self._delivered

    def _deliver(self, message: AppMessage) -> bool:
        """Deliver ``message`` locally if not already delivered.

        Returns True on first delivery, False on duplicates (Uniform
        integrity: at most once).
        """
        mid = message.mid
        origin, seq = mid
        delivered = self._delivered
        through = delivered.through
        above = delivered.above
        if self.process.crashed or seq <= through[origin] or mid in above:
            return False
        # Insert inline (no call per delivery): extend the origin's
        # watermark, absorbing any ids parked just above it.
        if seq == through[origin] + 1:
            while above and (origin, seq + 1) in above:
                seq += 1
                above.remove((origin, seq))
            through[origin] = seq
        else:
            above.add(mid)
        self.process.trace.rdeliver(
            self.engine.now, self.pid, message, self.uniform
        )
        for callback in self._callbacks:
            callback(message)
        return True
