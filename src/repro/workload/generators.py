"""Workload generators.

All generators schedule ``abroadcast`` calls on a built
:class:`~repro.stack.builder.System`; they draw inter-arrival times from
the system's named RNG streams, so the arrival pattern is reproducible
and independent of any other randomness in the run.  Every message of a
source carries the same frozen, content-free
:class:`~repro.core.message.Payload` object, built once per source.

Both generators are registered in the ``workload`` layer registry
(:data:`repro.stack.layers.WORKLOADS`), which is how
:func:`~repro.harness.experiment.run_experiment` resolves the
``workload=`` name of an :class:`~repro.harness.experiment.ExperimentSpec`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.core.exceptions import ConfigurationError
from repro.core.message import make_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.identifiers import ProcessId
    from repro.core.message import AppMessage
    from repro.stack.builder import System


class SymmetricWorkload:
    """The paper's symmetric open-loop workload.

    Every process abroadcasts at ``throughput / n`` messages per second.
    Inter-arrival times are exponential (``arrivals="poisson"``, an
    open-loop memoryless source) or fixed (``arrivals="uniform"``, with
    per-process phase offsets so the senders do not fire in lockstep).

    Scheduling is **chained**: each process carries one pending timer,
    and firing it draws the next inter-arrival gap from that process's
    RNG stream and re-arms.  A long high-throughput sweep therefore
    keeps ``n`` timers in the engine heap instead of the whole run's
    sends, and the send times are *identical* to scheduling everything
    eagerly up front (same streams, same draws, same order — asserted
    in ``tests/workload/test_workload.py``).

    Args:
        system: The built system to drive.
        throughput: Global abroadcast rate, messages per second.
        payload_size: Payload of every message, in bytes (the paper
            sweeps 1 B .. 5000 B).
        duration: Sending window in simulated seconds; messages are
            scheduled in ``[start, start + duration)``.
        start: Start of the sending window.
        arrivals: ``"poisson"`` or ``"uniform"``.
    """

    def __init__(
        self,
        system: "System",
        throughput: float,
        payload_size: int,
        duration: float,
        start: float = 0.0,
        arrivals: str = "poisson",
    ) -> None:
        if throughput <= 0:
            raise ConfigurationError("throughput must be > 0")
        if duration <= 0:
            raise ConfigurationError("duration must be > 0")
        if arrivals not in ("poisson", "uniform"):
            raise ConfigurationError(f"unknown arrival process {arrivals!r}")
        self.system = system
        self.throughput = throughput
        self.payload_size = payload_size
        self.duration = duration
        self.start = start
        self.arrivals = arrivals
        #: The payload every message carries: frozen and content-free,
        #: so one object serves the whole run.
        self.payload = make_payload(payload_size)
        #: Number of abroadcasts issued so far.
        self.sent = 0
        # Per-pid stream cache: ``rngs.stream`` memoizes by name, so
        # holding the object skips the f-string build + registry lookup
        # on every chained re-arm without changing a single draw.
        self._streams: dict["ProcessId", object] = {}

    def install(self) -> int:
        """Arm one chained send timer per process; returns chains armed.

        Every armed chain keeps exactly one timer pending at a time;
        the total number of sends is known once the sending window has
        passed (read :attr:`sent`).
        """
        n = self.system.config.n
        per_process_rate = self.throughput / n
        armed = 0
        for pid in self.system.config.processes:
            rng = self._streams[pid] = self.system.rngs.stream(
                f"workload.p{pid}"
            )
            if self.arrivals == "poisson":
                first = self.start + rng.expovariate(per_process_rate)
                interval = None
            else:
                interval = 1.0 / per_process_rate
                first = self.start + rng.uniform(0.0, interval)
            if first < self.end:
                self._arm(pid, first, per_process_rate, interval)
                armed += 1
        return armed

    def _arm(
        self,
        pid: "ProcessId",
        time: float,
        rate: float,
        interval: float | None,
    ) -> None:
        self.system.processes[pid].schedule_at(
            time, self._fire, pid, time, rate, interval
        )

    def _fire(
        self,
        pid: "ProcessId",
        time: float,
        rate: float,
        interval: float | None,
    ) -> None:
        self.system.abcasts[pid].abroadcast(self.payload)
        self.sent += 1
        if interval is None:
            next_time = time + self._streams[pid].expovariate(rate)
        else:
            next_time = time + interval
        if next_time < self.end:
            self._arm(pid, next_time, rate, interval)

    @property
    def end(self) -> float:
        """End of the sending window."""
        return self.start + self.duration


class ClosedLoopWorkload:
    """One closed-loop client per process.

    Each client abroadcasts a message, waits until its *own* process
    adelivers it, then waits a think time and sends the next — so the
    offered load adapts to the stack's delivery latency instead of
    piling up behind a saturated stack (the classic closed-loop
    counterpart to :class:`SymmetricWorkload`).  Think times are drawn
    from the same per-process ``workload.p{pid}`` streams: exponential
    with mean ``n / throughput`` (``arrivals="poisson"``) or fixed
    (``arrivals="uniform"``), making ``throughput`` the aggregate rate
    the clients *target* when delivery is instant.

    A client whose message is never delivered (a wedged or partitioned
    stack) simply stops — which is exactly the observable a
    sequencer-vs-indirect comparison looks for.

    Args:
        system: The built system to drive.
        throughput: Target aggregate send rate (messages/second) when
            delivery latency is negligible.
        payload_size: Payload of every message, in bytes.
        duration: Sending window; no new message is sent at or after
            ``start + duration``.
        start: Start of the sending window.
        arrivals: Think-time distribution: ``"poisson"`` | ``"uniform"``.
    """

    def __init__(
        self,
        system: "System",
        throughput: float,
        payload_size: int,
        duration: float,
        start: float = 0.0,
        arrivals: str = "poisson",
    ) -> None:
        if throughput <= 0:
            raise ConfigurationError("throughput must be > 0")
        if duration <= 0:
            raise ConfigurationError("duration must be > 0")
        if arrivals not in ("poisson", "uniform"):
            raise ConfigurationError(f"unknown arrival process {arrivals!r}")
        self.system = system
        self.throughput = throughput
        self.payload_size = payload_size
        self.duration = duration
        self.start = start
        self.arrivals = arrivals
        #: The payload every message carries (one object, as above).
        self.payload = make_payload(payload_size)
        #: Number of abroadcasts issued so far.
        self.sent = 0
        #: Outstanding message id per client (None = thinking).
        self._waiting: dict["ProcessId", object] = {}
        # Same per-pid stream cache as SymmetricWorkload: think times
        # are drawn twice per round trip, and the streams are memoized
        # by name, so the cached object yields identical draws.
        self._streams: dict["ProcessId", object] = {}

    def install(self) -> int:
        """Arm one client per process; returns the number of clients."""
        armed = 0
        for pid in self.system.config.processes:
            self.system.abcasts[pid].on_adeliver(
                partial(self._on_adeliver, pid)
            )
            think = self._think_time(pid)
            first = self.start + think
            if first < self.end:
                self.system.processes[pid].schedule_at(first, self._send, pid)
                armed += 1
        return armed

    def _think_time(self, pid: "ProcessId") -> float:
        rate = self.throughput / self.system.config.n
        rng = self._streams.get(pid)
        if rng is None:
            rng = self._streams[pid] = self.system.rngs.stream(
                f"workload.p{pid}"
            )
        if self.arrivals == "poisson":
            return rng.expovariate(rate)
        return 1.0 / rate

    def _send(self, pid: "ProcessId") -> None:
        if self.system.processes[pid].engine.now >= self.end:
            return
        message = self.system.abcasts[pid].abroadcast(self.payload)
        if message is None:
            return  # crashed client
        self.sent += 1
        self._waiting[pid] = message.mid

    def _on_adeliver(self, pid: "ProcessId", message: "AppMessage") -> None:
        if self._waiting.get(pid) != message.mid:
            return
        del self._waiting[pid]
        next_time = self.system.processes[pid].engine.now + self._think_time(pid)
        if next_time < self.end:
            self.system.processes[pid].schedule_at(next_time, self._send, pid)

    @property
    def end(self) -> float:
        """End of the sending window."""
        return self.start + self.duration
