"""Network latency models over a pluggable link subsystem.

Two models are provided:

* :class:`ConstantLatencyNetwork` — every frame takes ``base + per_byte *
  wire_size`` seconds (plus optional uniform jitter).  No queueing.
  Cheap, ideal for unit tests and algorithm-level scenarios.

* :class:`ContentionNetwork` — the performance model under which the
  paper's curves were produced (after the Neko performance model of
  Urbán's thesis).  Each frame is charged, in order, on three FIFO
  resources: the **sender's CPU** (serialization / syscall cost), the
  **transmission medium** of its segment (wire time), and the
  **receiver's CPU** (deserialization / interrupt cost).  Queueing at
  these resources is what bends the latency/throughput curves upward as
  the system saturates — exactly the effect Figures 3-7 of the paper
  measure.

Sends enter through one routine (:meth:`Network.multicast`, or
:meth:`Network.send` for a caller-built frame) that validates, counts
and costs a whole fan-out once.  While the network's
:class:`~repro.net.faults.FaultPipeline` is armed, every frame first
passes it: declarative loss/duplication rules and partition windows
decide whether the frame reaches the wire at all and how many copies
do; delay rules decide how long the link holds them.  A
:class:`~repro.net.topology.Topology` maps processes onto contention
segments — the contention model runs one medium per segment, with a
router latency per crossing.  With no fault
rules and a single segment both models are bit-identical to the
pre-pipeline implementation (no extra RNG draws, no extra events).

Both models honour crash-stop semantics: frames destined to a crashed
process are dropped, and (optionally) frames still queued at a sender
that crashes are lost, modelling the loss of OS socket buffers when a
machine dies.  That option is what makes the Section 2.2 validity
violation reproducible in a test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Sequence, TYPE_CHECKING

from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import ProcessId
from repro.net.faults import DelayRule, FaultPipeline
from repro.net.frame import FRAME_HEADER_SIZE, Frame, _tuple_new
from repro.net.topology import Topology
from repro.sim.engine import Engine, EventHandle
from repro.sim.equeue import PENDING, STATE
from repro.sim.resources import FifoResource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.process import SimProcess
    from repro.sim.rng import RngRegistry

#: One inbound frame handler, looked up by ``frame.kind``.
FrameHandler = Callable[[Frame], None]


@dataclass(frozen=True, slots=True)
class NetworkParams:
    """Calibration constants of the contention model (all in seconds).

    Attributes:
        send_overhead: Sender CPU time per frame, size-independent.
        recv_overhead: Receiver CPU time per frame, size-independent.
        cpu_per_byte: Sender/receiver CPU time per body byte
            (serialization cost).
        wire_overhead: Medium occupancy per frame, size-independent
            (preamble, inter-frame gap, switch latency).
        wire_per_byte: Medium occupancy per wire byte (8 bits / link rate).
        rcv_lookup_cost: CPU time charged per identifier looked up by the
            ``rcv`` predicate of indirect consensus.  This is the cost the
            paper identifies as the source of indirect consensus's
            overhead ("the calls to the rcv function ... take more and
            more time" as throughput grows).
    """

    send_overhead: float
    recv_overhead: float
    cpu_per_byte: float
    wire_overhead: float
    wire_per_byte: float
    rcv_lookup_cost: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "send_overhead",
            "recv_overhead",
            "cpu_per_byte",
            "wire_overhead",
            "wire_per_byte",
            "rcv_lookup_cost",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"NetworkParams.{name} must be >= 0")


class Network:
    """Base class: frame accounting, fault pipeline, crash handling.

    Subclasses implement :meth:`_stage_costs` (what one frame of a
    given size costs, computed once per multicast) and
    :meth:`_transmit`, which must eventually call :meth:`_deliver`
    (typically through engine callbacks).
    """

    def __init__(
        self,
        engine: Engine,
        drop_in_flight_of_crashed_sender: bool = False,
        faults: tuple = (),
        rngs: "RngRegistry | None" = None,
        topology: Topology | None = None,
    ) -> None:
        self.engine = engine
        self._processes: dict[ProcessId, "SimProcess"] = {}
        self._pids_sorted: tuple[ProcessId, ...] = ()
        #: pid -> that process's kind -> handler table (see attach).
        self._handlers: dict[ProcessId, Mapping[str, FrameHandler]] = {}
        self.drop_in_flight_of_crashed_sender = drop_in_flight_of_crashed_sender
        self._in_flight: dict[ProcessId, list[EventHandle]] = {}
        #: pid -> ``_in_flight`` length at which the next prune runs.
        self._in_flight_prune: dict[ProcessId, int] = {}
        self.pipeline = FaultPipeline(engine, faults, rngs)
        self.topology = topology if topology is not None else Topology.single()
        # pid -> segment index, filled on attach; ``_routed`` is fixed
        # here so the frame path never asks the topology anything.
        self._segment: dict[ProcessId, int] = {}
        self._routed = self.topology.segment_count > 1
        #: Counters by frame kind (tests assert message complexity with these).
        self.frames_sent: dict[str, int] = {}
        self.bytes_sent: dict[str, int] = {}
        self.frames_dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(
        self, process: "SimProcess", handlers: Mapping[str, FrameHandler]
    ) -> None:
        """Register ``process`` and its inbound ``handlers`` by frame kind.

        The network dispatches every frame delivered to ``process`` on
        ``frame.kind`` through ``handlers`` itself (a transport passes
        its live registration table, so kinds registered later count);
        a kind with no handler is a :class:`ConfigurationError`.
        """
        # Raises ConfigurationError for a pid the topology does not place.
        self._segment[process.pid] = self.topology.segment_of(process.pid)
        self._processes[process.pid] = process
        self._pids_sorted = tuple(sorted(self._processes))
        self._handlers[process.pid] = handlers
        self._in_flight[process.pid] = []
        self._in_flight_prune[process.pid] = 64
        if self.drop_in_flight_of_crashed_sender:
            process.on_crash(partial(self._drop_in_flight, process.pid))

    def process(self, pid: ProcessId) -> "SimProcess":
        return self._processes[pid]

    def pids(self) -> tuple[ProcessId, ...]:
        """Every attached process id, in ascending order.

        O(1): the tuple is rebuilt on :meth:`attach` (rare, wiring
        time), not per call — the frame send path reads it per
        multicast.  Callers may rely on the returned tuple being
        identical (``is``) between attaches, which is what lets
        :meth:`~repro.net.transport.Transport.send_all` cache its
        derived destination tuples.
        """
        return self._pids_sorted

    def close(self) -> None:
        """Forget the attached processes, their handler tables and the
        in-flight frames; part of :meth:`~repro.stack.builder.System.close`.

        The frame counters (``frames_sent``, ``bytes_sent``,
        ``frames_dropped``) stay readable.
        """
        self._processes = {}
        self._handlers = {}
        self._in_flight = {}

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def send(self, frame: Frame) -> None:
        """Inject one caller-built ``frame``: a multicast of one that
        transmits ``frame`` itself rather than building its own."""
        self.multicast(
            frame.src, (frame.dst,), frame.kind, frame.body, frame.size,
            frame,
        )

    def multicast(
        self,
        src: ProcessId,
        dsts: Sequence[ProcessId],
        kind: str,
        body: Any,
        size: int,
        frame: Frame | None = None,
    ) -> None:
        """The one send routine: a frame from ``src`` to each of ``dsts``.

        A crashed sender sends nothing.  Endpoints are validated, the
        per-kind counters bumped and the model's stage costs computed
        once for the whole fan-out; then one frame per destination is
        built (in ``dsts`` order; ``frame`` is :meth:`send`'s own) and
        transmitted.  Each frame is the tuple ``Frame(...)`` would build,
        allocated inline, without a Python-level ``__new__`` call per
        destination.  While
        the fault pipeline is armed each frame first passes it, which may
        drop it (loss rules, partition windows) or fan it out into
        duplicate copies.
        """
        processes = self._processes
        sender = processes.get(src)
        if sender is None:
            raise ConfigurationError(f"unknown sender p{src}")
        for dst in dsts:
            if dst not in processes:
                raise ConfigurationError(f"unknown destination p{dst}")
        count = len(dsts)
        if sender.crashed:
            self.frames_dropped += count
            return
        wire_size = size + FRAME_HEADER_SIZE
        frames_sent = self.frames_sent
        frames_sent[kind] = frames_sent.get(kind, 0) + count
        bytes_sent = self.bytes_sent
        bytes_sent[kind] = bytes_sent.get(kind, 0) + count * wire_size
        costs = self._stage_costs(size, wire_size)
        transmit = self._transmit
        armed = self.pipeline.armed
        for dst in dsts:
            out = (
                _tuple_new(Frame, (src, dst, kind, body, size))
                if frame is None
                else frame
            )
            if armed:
                copies = self.pipeline.admit(out)
                if not copies:
                    self.frames_dropped += 1
                for copy in copies:
                    transmit(copy, costs)
            else:
                transmit(out, costs)

    def _stage_costs(self, size: int, wire_size: int) -> Any:
        """Model-specific cost of one frame of ``size`` body bytes
        (``wire_size`` on the wire), handed to every :meth:`_transmit`
        of the multicast."""
        raise NotImplementedError

    def _transmit(self, frame: Frame, costs: Any) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Delivery path
    # ------------------------------------------------------------------

    def _drop_in_flight(self, src: ProcessId) -> None:
        for handle in self._in_flight[src]:
            if handle[STATE] == PENDING:
                handle.cancel()
                self.frames_dropped += 1
        self._in_flight[src].clear()

    def _prune_in_flight(self, src: ProcessId) -> None:
        """Forget ``src``'s delivered (or cancelled) in-flight handles.

        Run whenever the list has doubled since the last prune, so it
        stays within twice the frames actually in flight at amortized
        O(1) per frame.
        """
        flight = self._in_flight[src]
        flight[:] = [h for h in flight if h[STATE] == PENDING]
        self._in_flight_prune[src] = max(64, 2 * len(flight))

    def _deliver(self, frame: Frame) -> None:
        """Hand ``frame`` to the destination's handler for its kind
        (dropped if the destination crashed)."""
        dst = frame.dst
        if self._processes[dst].crashed:
            self.frames_dropped += 1
            return
        handler = self._handlers[dst].get(frame.kind)
        if handler is None:
            raise ConfigurationError(
                f"p{dst}: no handler for frame kind {frame.kind!r}"
            )
        handler(frame)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def total_frames(self, prefix: str = "") -> int:
        """Total frames sent whose kind starts with ``prefix``."""
        return sum(n for kind, n in self.frames_sent.items() if kind.startswith(prefix))

    def total_bytes(self, prefix: str = "") -> int:
        """Total wire bytes sent whose kind starts with ``prefix``."""
        return sum(n for kind, n in self.bytes_sent.items() if kind.startswith(prefix))


class ConstantLatencyNetwork(Network):
    """Frames arrive after ``base + per_byte * wire_size`` (+ jitter).

    :class:`~repro.net.faults.DelayRule`\\ s override the computed delay
    per matching frame (first match wins), which is how crafted fault
    scenarios reorder control traffic ahead of bulk data — the staging
    behind the Section 2.2 validity violation and the Section 3.3.2 MR
    indistinguishability argument.  Frames crossing topology segments
    additionally pay the router latency.
    """

    def __init__(
        self,
        engine: Engine,
        base: float = 100e-6,
        per_byte: float = 0.0,
        jitter: float = 0.0,
        rng: random.Random | None = None,
        drop_in_flight_of_crashed_sender: bool = False,
        faults: tuple = (),
        rngs: "RngRegistry | None" = None,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(
            engine,
            drop_in_flight_of_crashed_sender,
            faults=faults,
            rngs=rngs,
            topology=topology,
        )
        if base < 0 or per_byte < 0 or jitter < 0:
            raise ConfigurationError("network delays must be >= 0")
        if jitter > 0 and rng is None:
            raise ConfigurationError("jitter requires an rng stream")
        self.base = base
        self.per_byte = per_byte
        self.jitter = jitter
        self.rng = rng

    def _stage_costs(self, size: int, wire_size: int) -> float:
        return self.base + self.per_byte * wire_size

    def _transmit(self, frame: Frame, delay: float) -> None:
        rule = None
        if self.pipeline.has_delay:
            rule = self.pipeline.delay_rule_for(frame)
        if rule is not None and rule.delay is not None:
            delay = rule.delay
        elif self.jitter > 0:
            assert self.rng is not None
            delay += self.rng.uniform(0.0, self.jitter)
        if rule is not None:
            delay += rule.extra
        if self._routed and self._segment[frame.src] != self._segment[frame.dst]:
            delay += self.topology.router_latency
        handle = self.engine.schedule(delay, self._deliver, frame)
        if self.drop_in_flight_of_crashed_sender:
            # Remembered so the sender's crash can void it.
            flight = self._in_flight[frame.src]
            flight.append(handle)
            if len(flight) >= self._in_flight_prune[frame.src]:
                self._prune_in_flight(frame.src)


class ContentionNetwork(Network):
    """CPU + per-segment-medium contention model (the Neko performance
    model, generalised to multiple segments).

    Per frame, in order:

    1. occupy the **sender CPU** for ``send_overhead + cpu_per_byte*size``;
    2. occupy the **source segment's medium** for ``wire_overhead +
       wire_per_byte * wire_size`` (one frame at a time per segment);
    3. if the destination sits on another segment: wait the topology's
       ``router_latency``, then occupy the **destination segment's
       medium** for the same wire time (store-and-forward);
    4. occupy the **receiver CPU** for ``recv_overhead + cpu_per_byte*size``;
    5. deliver to the protocol handler.

    Self-addressed frames skip the medium and the second CPU charge: a
    local loopback costs one ``send_overhead`` only.

    All stages are FIFO queues, so a burst of large frames delays every
    frame behind it — the saturation mechanism of Figures 3-7.  With
    the default single-segment topology there is exactly one medium and
    no router stage, matching the paper's shared Ethernet segment.
    """

    def __init__(
        self,
        engine: Engine,
        params: NetworkParams,
        drop_in_flight_of_crashed_sender: bool = False,
        faults: tuple = (),
        rngs: "RngRegistry | None" = None,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(
            engine,
            drop_in_flight_of_crashed_sender,
            faults=faults,
            rngs=rngs,
            topology=topology,
        )
        for rule in self.pipeline.rules:
            if isinstance(rule, DelayRule) and rule.delay is not None:
                raise ConfigurationError(
                    "DelayRule.delay overrides apply to the constant "
                    "model only — the contention model has no single "
                    "one-way delay to replace; use DelayRule(extra=...) "
                    "for added link latency"
                )
        self.params = params
        if self.topology.segment_count == 1:
            self.media: tuple[FifoResource, ...] = (
                FifoResource(engine, name="net.medium"),
            )
        else:
            self.media = tuple(
                FifoResource(engine, name=f"net.medium.{i}")
                for i in range(self.topology.segment_count)
            )
        # Where a frame goes when it leaves its last medium: only a
        # DelayRule (fixed at construction) puts a stage in between.
        self._after_wire = (
            self._exit_final_wire
            if self.pipeline.has_delay
            else self._enter_receiver
        )

    def close(self) -> None:
        super().close()
        self._after_wire = None  # a bound method: this network, again

    @property
    def medium(self) -> FifoResource:
        """The (first) segment medium; *the* medium when single-segment."""
        return self.media[0]

    def _stage_costs(
        self, size: int, wire_size: int
    ) -> tuple[float, float, float]:
        """(sender CPU, medium, receiver CPU) seconds for one frame."""
        params = self.params
        cpu = params.cpu_per_byte * size
        return (
            params.send_overhead + cpu,
            params.wire_overhead + params.wire_per_byte * wire_size,
            params.recv_overhead + cpu,
        )

    def _transmit(
        self, frame: Frame, costs: tuple[float, float, float]
    ) -> None:
        cpu = self._processes[frame.src].cpu
        if frame.dst == frame.src:
            cpu.stage(self.params.send_overhead, self._deliver, (frame,))
        else:
            cpu.stage(costs[0], self._enter_medium, (frame, costs[1], costs[2]))

    def _enter_medium(self, frame: Frame, wire: float, recv: float) -> None:
        if (
            self.drop_in_flight_of_crashed_sender
            and self._processes[frame.src].crashed
        ):
            self.frames_dropped += 1
            return
        segment = self._segment[frame.src]
        if self._routed and self._segment[frame.dst] != segment:
            self.media[segment].stage(
                wire, self._exit_source_segment, (frame, wire, recv)
            )
        else:
            self.media[segment].stage(wire, self._after_wire, (frame, recv))

    def _exit_source_segment(
        self, frame: Frame, wire: float, recv: float
    ) -> None:
        hop = self.topology.router_latency
        if hop > 0:
            self.engine.schedule(
                hop, self._enter_destination_segment, frame, wire, recv
            )
        else:
            self._enter_destination_segment(frame, wire, recv)

    def _enter_destination_segment(
        self, frame: Frame, wire: float, recv: float
    ) -> None:
        self.media[self._segment[frame.dst]].stage(
            wire, self._after_wire, (frame, recv)
        )

    def _exit_final_wire(self, frame: Frame, recv: float) -> None:
        extra = self.pipeline.extra_delay(frame)
        if extra > 0:
            self.engine.schedule(extra, self._enter_receiver, frame, recv)
        else:
            self._enter_receiver(frame, recv)

    def _enter_receiver(self, frame: Frame, recv: float) -> None:
        processes = self._processes
        if (
            self.drop_in_flight_of_crashed_sender
            and processes[frame.src].crashed
        ):
            # The sender died while this frame sat queued on the medium:
            # under the lost-socket-buffers policy it never reaches the
            # receiver (mirrors the constant model's in-flight drop).
            self.frames_dropped += 1
            return
        dst = processes[frame.dst]
        if dst.crashed:
            self.frames_dropped += 1
            return
        dst.cpu.stage(recv, self._deliver, (frame,))

    def charge_rcv_lookups(self, pid: ProcessId, lookups: int) -> None:
        """Charge CPU time for ``lookups`` rcv() identifier lookups at ``pid``.

        Called by the indirect consensus layers; the charge queues on the
        process CPU ahead of its subsequent sends, which is how the rcv
        overhead turns into measurable end-to-end latency.
        """
        if lookups <= 0 or self.params.rcv_lookup_cost <= 0:
            return
        self._processes[pid].cpu.occupy(self.params.rcv_lookup_cost * lookups)
