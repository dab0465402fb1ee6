"""Non-preemptive FIFO resources (single-server queues).

The contention network model charges work to three kinds of resources:
the sender's CPU, the shared transmission medium, and the receiver's CPU
— following the performance model used with Neko in Urbán's thesis, from
which the paper's measurements come.  All three are instances of
:class:`FifoResource`: a single server that executes jobs back to back in
arrival order.

Queueing at these resources is what produces the characteristic shapes
of the paper's figures: latency that is flat at low throughput, then
climbs steeply as a resource approaches saturation.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

from repro.sim.engine import Engine
from repro.sim.equeue import PENDING


class FifoResource:
    """A single-server FIFO queue over simulated time.

    Jobs are submitted with :meth:`occupy` (or :meth:`stage`, the
    one-call form the network's frame path uses); each job holds the
    resource for its ``duration`` and the completion callback fires when
    the job finishes.  Because the server is non-preemptive and FIFO,
    the finish time of a job is ``max(now, previous finish) + duration``.

    The class keeps utilisation statistics so experiments can report
    which resource saturated first.
    """

    __slots__ = (
        "engine",
        "name",
        "_queue",
        "_free_at",
        "busy_time",
        "jobs_served",
    )

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name
        self._queue = engine.equeue
        self._free_at = 0.0
        #: Total simulated seconds the server has been busy.
        self.busy_time = 0.0
        #: Number of jobs completed or in progress.
        self.jobs_served = 0

    def occupy(
        self,
        duration: float,
        then: Callable[..., None] | None = None,
        *args: Any,
    ) -> float:
        """Enqueue a job of ``duration`` seconds; fire ``then`` at completion.

        Returns the simulated time at which the job completes.  A zero
        ``duration`` still respects FIFO order (the job completes when
        the server reaches it, not immediately).
        """
        if duration < 0:
            raise ValueError(f"job duration must be >= 0, got {duration}")
        if then is not None:
            return self.stage(duration, then, args)
        start = self._free_at
        now = self.engine.now
        if now > start:
            start = now
        finish = self._free_at = start + duration
        self.busy_time += duration
        self.jobs_served += 1
        return finish

    def stage(
        self,
        duration: float,
        then: Callable[..., None],
        args: tuple[Any, ...],
    ) -> float:
        """:meth:`occupy` in one call: charge the job, push ``then(*args)``.

        The frame path's sender CPU, medium and receiver CPU stages each
        come through here: the finish time, the utilisation counters and
        the heap push (a bare fire-and-forget entry) without a second
        Python-level call.  ``duration`` is trusted to be ``>= 0``.
        """
        start = self._free_at
        now = self.engine.now
        if now > start:
            start = now
        finish = self._free_at = start + duration
        self.busy_time += duration
        self.jobs_served += 1
        queue = self._queue
        queue.seq = seq = queue.seq + 1
        entry = [finish, seq, then, args, PENDING]
        heappush(queue.entries, entry)
        queue.pending += 1
        return finish

    def backlog(self) -> float:
        """Seconds of queued work ahead of a job submitted right now."""
        return max(0.0, self._free_at - self.engine.now)

    def utilisation(self, elapsed: float | None = None) -> float:
        """Fraction of time busy, over ``elapsed`` (default: engine.now)."""
        horizon = self.engine.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
