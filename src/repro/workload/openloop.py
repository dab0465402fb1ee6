"""Open-loop *aggregate* arrival processes.

The generators in :mod:`repro.workload.generators` model one source per
replica — the paper's scale.  The classes here model the aggregate
traffic of millions of clients hitting one abcast group (or one shard
of a partitioned service) **without simulating the clients**: a single
chained timer per group draws arrivals from a seeded RNG stream, and
each arrival is injected at a (randomly chosen, non-crashed) replica or
handed to an external ``sink`` — the seam the shard router uses to
apply admission control before the stack ever sees the message.

Two arrival processes:

* :class:`PoissonWorkload` — memoryless aggregate arrivals at a fixed
  rate (``arrivals="uniform"`` degrades to a deterministic pulse train).
* :class:`BurstyWorkload` — a two-state MMPP (Markov-modulated Poisson
  process): exponentially-distributed ON periods at an elevated rate
  alternate with silent OFF periods, with the *average* rate equal to
  ``throughput``, so it is load-comparable to the Poisson source while
  stressing queues with bursts.

Both are registered in the workload layer registry
(:data:`repro.stack.layers.WORKLOADS`) under ``"poisson"`` and
``"bursty"`` with ``meta={"aggregate": True}``, which is how the shard
sweep discovers that they accept a ``sink``.  Like the per-replica
generators, a source builds its frozen, content-free payload once and
hands the same object to every arrival.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.exceptions import ConfigurationError
from repro.core.message import make_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.message import Payload
    from repro.stack.builder import System

#: Sink signature: receives each arrival's payload; return value ignored.
Sink = Callable[["Payload"], object]


class PoissonWorkload:
    """Aggregate open-loop source: one arrival process for the group.

    Arrivals occur at ``throughput`` per second in
    ``[start, start + duration)``.  With ``arrivals="poisson"`` the
    inter-arrival gaps are exponential; ``"uniform"`` gives a fixed gap
    with a random initial phase.  Each arrival either goes to ``sink``
    (when given) or is abroadcast at a replica drawn uniformly from the
    group's non-crashed replicas — all draws come from the single
    ``workload.aggregate`` stream of the system's RNG registry, so the
    whole arrival sequence is a pure function of the seed.

    Scheduling is chained (one pending timer), same as
    :class:`~repro.workload.generators.SymmetricWorkload`.

    Args:
        system: The built system whose engine/RNG drive the source and,
            absent a ``sink``, whose abcasts receive the arrivals.
        throughput: Aggregate arrival rate, messages per second.
        payload_size: Payload of every message, in bytes.
        duration: Sending window in simulated seconds.
        start: Start of the sending window.
        arrivals: ``"poisson"`` or ``"uniform"``.
        sink: Optional per-arrival callable replacing direct injection
            (the shard router's admission entry point).
    """

    #: RNG stream feeding every draw of an aggregate source.
    STREAM = "workload.aggregate"

    def __init__(
        self,
        system: "System",
        throughput: float,
        payload_size: int,
        duration: float,
        start: float = 0.0,
        arrivals: str = "poisson",
        sink: Sink | None = None,
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
        self.sink = sink
        #: The payload every arrival carries: frozen and content-free,
        #: so one object serves the whole run.
        self.payload = make_payload(payload_size)
        #: Number of arrivals injected so far.
        self.sent = 0
        self._rng = system.rngs.stream(self.STREAM)
        self._pids = tuple(system.config.processes)

    def install(self) -> int:
        """Arm the aggregate arrival chain; returns chains armed (0|1)."""
        first = self.start + self._first_gap()
        if first >= self.end:
            return 0
        self.system.engine.schedule_at(first, self._fire, first)
        return 1

    def _first_gap(self) -> float:
        if self.arrivals == "poisson":
            return self._rng.expovariate(self.throughput)
        return self._rng.uniform(0.0, 1.0 / self.throughput)

    def _next_gap(self) -> float:
        if self.arrivals == "poisson":
            return self._rng.expovariate(self.throughput)
        return 1.0 / self.throughput

    def _fire(self, time: float) -> None:
        self._inject()
        next_time = time + self._next_gap()
        if next_time < self.end:
            self.system.engine.schedule_at(next_time, self._fire, next_time)

    def _inject(self) -> None:
        payload = self.payload
        if self.sink is not None:
            self.sink(payload)
            self.sent += 1
            return
        # Entry-replica draw happens even when the pick is retried past
        # crashed replicas, so the draw *count* per arrival varies with
        # the crash schedule but never with scheduling noise.
        pids = self._pids
        for _ in range(len(pids)):
            pid = pids[self._rng.randrange(len(pids))]
            if self.system.abcasts[pid].abroadcast(payload) is not None:
                self.sent += 1
                return
        # Whole group crashed: the arrival is lost (open loop).

    @property
    def end(self) -> float:
        """End of the sending window."""
        return self.start + self.duration


class BurstyWorkload(PoissonWorkload):
    """Two-state MMPP on/off source with average rate ``throughput``.

    The source alternates between an ON state emitting Poisson arrivals
    at ``throughput / on_fraction`` and a silent OFF state.  Holding
    times are exponential with means ``on_fraction * cycle`` (ON) and
    ``(1 - on_fraction) * cycle`` (OFF), so the long-run average rate
    equals ``throughput`` while instantaneous load bursts
    ``1 / on_fraction``× above it — the shape that exposes admission
    control and p99 behaviour a steady Poisson source cannot.

    Extra knobs beyond :class:`PoissonWorkload` (both have defaults so
    the registry's fixed factory signature keeps working):

    Args:
        on_fraction: Fraction of time spent ON, in (0, 1]; the burst
            amplification is its reciprocal.  ``1.0`` degrades to plain
            Poisson.
        cycle: Mean length of one ON+OFF cycle, in simulated seconds.
    """

    def __init__(
        self,
        system: "System",
        throughput: float,
        payload_size: int,
        duration: float,
        start: float = 0.0,
        arrivals: str = "poisson",
        sink: Sink | None = None,
        on_fraction: float = 0.25,
        cycle: float = 0.1,
    ) -> None:
        super().__init__(
            system, throughput, payload_size, duration,
            start=start, arrivals=arrivals, sink=sink,
        )
        if not 0.0 < on_fraction <= 1.0:
            raise ConfigurationError("on_fraction must be in (0, 1]")
        if cycle <= 0:
            raise ConfigurationError("cycle must be > 0")
        self.on_fraction = on_fraction
        self.cycle = cycle
        self._on_rate = throughput / on_fraction
        self._mean_on = on_fraction * cycle
        self._mean_off = (1.0 - on_fraction) * cycle
        self._on = False

    def install(self) -> int:
        """Arm the modulating chain; returns chains armed (0|1).

        The chain interleaves state flips and arrivals on one timer:
        entering ON draws the burst's arrival gaps at the elevated
        rate until the drawn flip-to-OFF time passes, then sleeps the
        OFF holding time.  All draws still come from the single
        aggregate stream, in engine order, so runs are reproducible.
        """
        if self.start >= self.end:  # pragma: no cover - ctor forbids
            return 0
        self.system.engine.schedule_at(self.start, self._enter_on)
        return 1

    def _enter_on(self) -> None:
        now = self.system.engine.now
        if now >= self.end:
            return
        self._on = True
        off_at = now + self._rng.expovariate(1.0 / self._mean_on)
        first = now + self._rng.expovariate(self._on_rate)
        self._step(first, off_at)

    def _step(self, arrival: float, off_at: float) -> None:
        """Advance the burst: fire arrivals until the flip time wins."""
        if self._mean_off == 0.0:
            off_at = self.end  # on_fraction == 1: never flip
        if arrival < off_at and arrival < self.end:
            self.system.engine.schedule_at(arrival, self._burst_fire, off_at)
            return
        self._on = False
        if off_at >= self.end:
            return
        on_at = off_at + self._rng.expovariate(1.0 / self._mean_off) \
            if self._mean_off > 0.0 else off_at
        if on_at < self.end:
            self.system.engine.schedule_at(on_at, self._enter_on)

    def _burst_fire(self, off_at: float) -> None:
        self._inject()
        now = self.system.engine.now
        self._step(now + self._rng.expovariate(self._on_rate), off_at)
