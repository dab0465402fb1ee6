"""Per-process transport endpoint.

Protocol layers never touch the network directly; they send through
their process's :class:`Transport`, which stamps frames with the local
process id, and they receive by registering a handler for each frame
kind they own (``"rb.data"``, ``"cons.ack"``, ...).

The transport hands its kind -> handler table to the network at attach,
and the network dispatches each delivered frame on ``frame.kind``
itself.  The network also enforces the crash-stop model on the receive
path: a crashed process's handlers are never invoked.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import ProcessId
from repro.net.frame import Frame
from repro.net.models import Network
from repro.sim.process import SimProcess

FrameHandler = Callable[[Frame], None]


class Transport:
    """Send/receive endpoint of one process.

    Handlers are registered per frame kind; registering the same kind
    twice is a configuration error (it would silently shadow a protocol).
    The table is the one the network dispatches from, so a handler
    registered after attach is seen by the next delivered frame.
    """

    def __init__(self, process: SimProcess, network: Network) -> None:
        self.process = process
        self.network = network
        self._handlers: dict[str, FrameHandler] = {}
        # send_all destination cache, keyed by the network's pids tuple
        # identity (it is rebuilt only when a process attaches).
        self._peers_snapshot: tuple[ProcessId, ...] = ()
        self._others: tuple[ProcessId, ...] = ()
        # The pid never changes after construction and the network
        # object never changes: plain attributes, so neither the layers
        # reading ``transport.pid`` nor the send path pay a descriptor.
        self.pid: ProcessId = process.pid
        self._net_multicast = network.multicast
        network.attach(process, self._handlers)

    @property
    def peers(self) -> tuple[ProcessId, ...]:
        """Every process attached to the network, including this one."""
        return self.network.pids()

    def register(self, kind: str, handler: FrameHandler) -> None:
        """Route inbound frames of ``kind`` to ``handler``."""
        if kind in self._handlers:
            raise ConfigurationError(
                f"p{self.pid}: handler for frame kind {kind!r} already registered"
            )
        self._handlers[kind] = handler

    def close(self) -> None:
        """Drop the registered handlers (bound methods of the layers
        above); part of :meth:`~repro.stack.builder.System.close`."""
        self._handlers = {}

    # ------------------------------------------------------------------
    # Send primitives
    # ------------------------------------------------------------------

    def send(
        self,
        dst: ProcessId,
        kind: str,
        body: Any,
        size: int,
    ) -> None:
        """Send one frame to ``dst`` (which may be this process itself)."""
        self._net_multicast(self.pid, (dst,), kind, body, size)

    def send_all(
        self,
        kind: str,
        body: Any,
        size: int,
        include_self: bool = True,
    ) -> None:
        """Send to every attached process (optionally skipping self).

        A LAN without IP multicast sends n unicasts, each charged
        separately by the network model, which is what makes O(n) vs
        O(n**2) broadcast algorithms measurably different.  The destination tuples are derived from the network's peer set
        once per attach epoch (the peer set is fixed after wiring), and
        the network validates, counts and costs the whole fan-out once
        (``tests/net/test_transport.py`` pins the frames against a
        rebuild-and-sort reference).
        """
        peers = self.network.pids()
        if peers is not self._peers_snapshot:
            self._peers_snapshot = peers
            self._others = tuple(p for p in peers if p != self.pid)
        self._net_multicast(
            self.pid,
            peers if include_self else self._others,
            kind,
            body,
            size,
        )
