"""Per-process simulation shell.

A :class:`SimProcess` is the container in which protocol layers execute:
it owns the crash flag, guards timers so that a crashed process takes no
further steps (the crash-stop model of the paper), and gives layers
access to the engine, the trace and the process's CPU resource.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.identifiers import ProcessId
from repro.sim.engine import Engine, EventHandle
from repro.sim.resources import FifoResource
from repro.sim.trace import Trace


class SimProcess:
    """One process ``p_i`` of the group.

    Attributes:
        pid: The 1-based process identifier.
        engine: The shared discrete-event engine.
        trace: The shared protocol-event trace.
        cpu: This process's CPU resource (protocol work queues here).
        crashed: True once :meth:`crash` has run; guarded callbacks
            scheduled through :meth:`schedule` become no-ops afterwards.

    Timers deliberately stay on the *handle* path
    (``engine.schedule`` → :class:`EventHandle`): protocol layers hold
    the returned handle to cancel or inspect it, so the handle is the
    contract, not overhead — bare heap entries are for fire-and-forget
    events (resource completions, batched frame deliveries).
    """

    __slots__ = (
        "pid",
        "engine",
        "trace",
        "cpu",
        "crashed",
        "_crash_listeners",
    )

    def __init__(self, pid: ProcessId, engine: Engine, trace: Trace) -> None:
        self.pid = pid
        self.engine = engine
        self.trace = trace
        self.cpu = FifoResource(engine, name=f"cpu.p{pid}")
        self.crashed = False
        self._crash_listeners: list[Callable[[], None]] = []

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay``, skipped if crashed by then.

        This is the primitive every protocol layer uses for timers; the
        crash guard is what makes the crash-stop failure model airtight
        without every layer re-checking the flag.
        """
        return self.engine.schedule(delay, self._guarded, fn, args)

    def schedule_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Absolute-time variant of :meth:`schedule`."""
        return self.engine.schedule_at(time, self._guarded, fn, args)

    def _guarded(self, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        if not self.crashed:
            fn(*args)

    def on_crash(self, listener: Callable[[], None]) -> None:
        """Register a callback invoked once when this process crashes."""
        self._crash_listeners.append(listener)

    def close(self) -> None:
        """Drop the crash listeners (closures over the layers and the
        network); part of :meth:`~repro.stack.builder.System.close`."""
        self._crash_listeners = []

    def crash(self) -> None:
        """Crash the process (idempotent).

        After this call the process executes no callbacks scheduled via
        :meth:`schedule`, sends no messages, and drops incoming frames.
        Frames already in flight to *other* processes are unaffected —
        crashing does not retroactively unsend messages.
        """
        if self.crashed:
            return
        self.crashed = True
        self.trace.crash(self.engine.now, self.pid)
        for listener in self._crash_listeners:
            listener()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "crashed" if self.crashed else "up"
        return f"SimProcess(p{self.pid}, {state})"
