"""Failure-detector-based reliable broadcast — O(n) messages in good runs.

The origin sends the message to every process and nobody relays as long
as the origin is trusted.  If a process's failure detector ever suspects
the origin of a delivered message, the process relays that message to
everybody (once): should the origin really have crashed mid-broadcast,
whoever received a copy re-diffuses it, restoring Agreement.

In failure-free, suspicion-free runs the cost is ``n - 1`` data frames
per broadcast — the "Reliable broadcast in O(n) messages" configuration
of Figures 6 and 7b, which is where indirect consensus shines brightest
in the paper.

Correctness note: Agreement here relies on the *completeness* of the
failure detector (a crashed origin is eventually suspected by every
correct process, so every correct process that holds a copy relays it).
False suspicions cost duplicate frames, never correctness — duplicates
are filtered by the at-most-once delivery guard of the base class.
"""

from __future__ import annotations

from collections import defaultdict

from repro.broadcast.base import BroadcastService
from repro.core.identifiers import ProcessId
from repro.core.message import AppMessage
from repro.failure.detector import FailureDetector
from repro.net.frame import Frame
from repro.net.transport import Transport


class SenderReliableBroadcast(BroadcastService):
    """O(n)-messages reliable broadcast with FD-triggered relay."""

    KIND = "rb1.data"
    uniform = False

    def __init__(self, transport: Transport, detector: FailureDetector) -> None:
        super().__init__(transport)
        self.detector = detector
        #: origin -> the delivered messages of that origin not relayed
        #: yet, oldest first.  A message leaves when it is relayed, so a
        #: detector flip touches only what it can still relay.
        self._unrelayed: dict[ProcessId, list[AppMessage]] = defaultdict(list)
        transport.register(self.KIND, self._on_data)
        detector.on_change(self._on_detector_change)

    def _diffuse(self, message: AppMessage) -> None:
        self._deliver(message)
        self._unrelayed[message.mid.origin].append(message)
        self._send(message)

    def _on_data(self, frame: Frame) -> None:
        message: AppMessage = frame.body
        if not self._deliver(message):
            return
        # If the origin is *already* suspected, relay immediately: the
        # detector change that would normally trigger the relay may have
        # fired before this copy arrived.
        origin = message.mid.origin
        if self.detector.is_suspected(origin):
            self._send(message)
        else:
            self._unrelayed[origin].append(message)

    def _on_detector_change(self) -> None:
        if self.process.crashed:
            return
        # The detector notifies once per flipped process and a copy from
        # an already suspected origin is relayed on arrival, so only the
        # origin that just became suspected can have anything pending.
        for origin in self.detector.suspects():
            for message in self._unrelayed.pop(origin, ()):
                self._send(message)

    def _send(self, message: AppMessage) -> None:
        self.transport.send_all(
            self.KIND,
            body=message,
            size=message.wire_size(),
            include_self=False,
        )
