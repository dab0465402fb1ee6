"""System composer: from a declarative spec to a runnable simulation.

The :class:`StackSpec` *names* the layers of one protocol stack; the
names resolve through the layer registries of
:mod:`repro.stack.layers`, and :func:`build_system` is a thin composer
that walks the registry entries in stack order — network, processes,
transports, failure detectors, then one per-process protocol assembly
per the atomic-broadcast entry's factory.  Compatibility rules (which
consensus an abcast variant accepts, which ``StackSpec`` fields an
entry validates) live on the registry entries, not here: registering a
new stack (see :mod:`repro.abcast.sequencer`) requires no change to
this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.abcast.base import AtomicBroadcast
from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import ProcessId
from repro.failure.crash import CrashSchedule
from repro.failure.detector import FalseSuspicion
from repro.net.faults import PartitionWindow, validate_fault_rules
from repro.net.models import ConstantLatencyNetwork, ContentionNetwork, NetworkParams
from repro.net.setups import SETUP_1
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace, TraceObserver
from repro.stack import layers


@dataclass(frozen=True)
class StackSpec:
    """Declarative description of one experiment's protocol stack.

    Every layer-naming field resolves through the registries of
    :mod:`repro.stack.layers`; run ``python -m repro.harness
    --list-variants`` for the live catalog.  Unknown names and
    incompatible combinations raise
    :class:`~repro.core.exceptions.ConfigurationError` at construction,
    with a closest-match suggestion for typos.

    Attributes:
        n: Number of processes.
        abcast: Atomic-broadcast variant: ``"indirect"`` |
            ``"faulty-ids"`` | ``"urb-ids"`` | ``"on-messages"`` (the
            four stacks of the paper's evaluation) | ``"sequencer"``
            (the fixed-sequencer baseline) | any registered name.
        consensus: ``"ct"`` | ``"mr"`` | ``"ct-indirect"`` |
            ``"mr-indirect"`` | ``"none"``.  Must be compatible with
            ``abcast`` (each abcast registry entry declares the
            consensus names it accepts; the indirect stack needs an
            indirect algorithm, the sequencer needs ``"none"``).
        rb: Diffusion layer for the reduction stacks: ``"flood"``
            (O(n^2) messages, Figs. 5/7a) or ``"sender"`` (O(n)
            messages in good runs, Figs. 6/7b).
        network: ``"contention"`` (performance model) or ``"constant"``
            (fixed per-frame latency; unit tests and scenarios).
        params: Contention-model calibration (ignored for "constant").
        fd: ``"oracle"`` (◇P driven by ground truth) or ``"heartbeat"``
            (message-based ◇S).
        f: Crash tolerance; defaults to each algorithm's maximum.
        seed: Seed for all randomness in the run.
        constant_latency: One-way frame delay for the constant network.
        constant_per_byte: Extra one-way delay per wire byte for the
            constant network (``0.0`` = size-independent latency).
        constant_jitter: Uniform extra delay in ``[0, jitter]`` seconds
            per frame for the constant network, drawn from the
            deterministic ``net.jitter`` RNG stream.  Ignored (like
            ``constant_latency`` and ``constant_per_byte``) when
            ``network="contention"``.
        drop_in_flight_on_crash: Lose frames still queued at a crashing
            sender (models lost socket buffers; needed by the
            Section 2.2 scenario).
        enforce_resilience: Fail fast when a schedule exceeds ``f``;
            scenario tests that *demonstrate* over-``f`` violations
            disable this.
        faults: Declarative link-fault rules (see
            :mod:`repro.net.faults`), applied in order by the network's
            fault pipeline:

            * ``LossRule`` — drop matching frames, probabilistically
              (``net.loss`` RNG stream) or the deterministic nth match;
            * ``DuplicationRule`` — deliver extra copies (``net.dup``);
            * ``DelayRule`` — override/stretch matching frames' one-way
              latency, first match wins (the declarative replacement
              for the former ``delay_fn`` callable; ``delay`` overrides
              are constant-model only, the contention model rejects
              them — use ``extra``);
            * ``PartitionWindow`` — a timed partition between process
              groups.

            A rule naming a process outside ``1..n`` is refused: it
            would never match a frame.  All rules are frozen dataclasses
            of primitives, so specs carrying them stay picklable
            (parallel ``run_suite()``) and content-hashable (result-cache
            keys).  A runnable partition scenario::

                from repro.net.faults import PartitionWindow

                spec = StackSpec(
                    n=3, abcast="indirect", consensus="ct-indirect",
                    faults=(PartitionWindow(
                        start=0.2, end=0.5, groups=((1, 2), (3,)),
                    ),),
                )
                with build_system(spec) as system:
                    # p3 is cut off between t=0.2s and t=0.5s, then heals.
                    system.run(until=1.0)

        topology: Optional :class:`~repro.net.topology.Topology`
            placing the ``n`` processes on multiple contention segments
            joined by a router; ``None`` = the paper's single shared
            segment.
    """

    n: int
    abcast: str = "indirect"
    consensus: str = "ct-indirect"
    rb: str = "flood"
    network: str = "contention"
    params: NetworkParams = SETUP_1
    fd: str = "oracle"
    f: int | None = None
    seed: int = 0
    constant_latency: float = 100e-6
    constant_per_byte: float = 0.0
    constant_jitter: float = 0.0
    fd_detection_delay: float = 30e-3
    heartbeat_interval: float = 20e-3
    heartbeat_timeout: float = 100e-3
    drop_in_flight_on_crash: bool = False
    enforce_resilience: bool = True
    false_suspicions: tuple[FalseSuspicion, ...] = ()
    faults: tuple = ()
    topology: Topology | None = None
    #: Ablation knobs: cap on identifiers per consensus proposal, and
    #: the CT-indirect Phase-3 policy when rcv(v) fails ("nack" =
    #: Algorithm 2, "wait" = stall for messages).  Measured by
    #: ``benchmarks/test_ablation_batch_cap.py`` and
    #: ``benchmarks/test_ablation_nack_vs_wait.py``.
    batch_cap: int | None = None
    ct_missing_policy: str = "nack"

    def __post_init__(self) -> None:
        layers.validate_stack_spec(self)
        object.__setattr__(self, "faults", validate_fault_rules(self.faults))
        for rule in self.faults:
            if isinstance(rule, PartitionWindow):
                named = [pid for group in rule.groups for pid in group]
                what = "partition window"
            else:
                named = [pid for pid in (rule.src, rule.dst) if pid is not None]
                what = type(rule).__name__
            for pid in named:
                if not 1 <= pid <= self.n:
                    raise ConfigurationError(
                        f"{what} names unknown p{pid} (n={self.n})"
                    )
        if self.topology is not None:
            if not isinstance(self.topology, Topology):
                raise ConfigurationError(
                    f"StackSpec.topology must be a Topology, "
                    f"got {self.topology!r}"
                )
            self.topology.validate_for(self.n)


@dataclass
class BuildContext:
    """Everything a registry factory may need while a system is composed.

    Passed to the ``fd``, ``rb`` and ``abcast`` factories; fields are
    populated in composition order (``detectors`` is empty until the
    fd entry has run).
    """

    spec: StackSpec
    config: SystemConfig
    engine: Engine
    trace: TraceObserver
    rngs: RngRegistry
    network: ConstantLatencyNetwork | ContentionNetwork
    processes: dict[ProcessId, SimProcess]
    transports: dict[ProcessId, Transport]
    detectors: dict[ProcessId, object] = field(default_factory=dict)


@dataclass
class System:
    """A fully wired simulated system, ready to drive."""

    spec: StackSpec
    config: SystemConfig
    engine: Engine
    trace: TraceObserver
    rngs: RngRegistry
    network: ConstantLatencyNetwork | ContentionNetwork
    processes: dict[ProcessId, SimProcess]
    transports: dict[ProcessId, Transport]
    detectors: dict[ProcessId, object]
    broadcasts: dict[ProcessId, object]
    consensuses: dict[ProcessId, object]
    abcasts: dict[ProcessId, AtomicBroadcast] = field(default_factory=dict)

    def run(self, until: float, max_events: int | None = None) -> float:
        """Advance simulated time to ``until``."""
        return self.engine.run(until=until, max_events=max_events)

    def run_until_delivered(
        self,
        count: int,
        timeout: float,
        max_events: int | None = None,
    ) -> bool:
        """Run until every non-crashed process adelivered ``count`` messages.

        Returns True if the condition was reached before ``timeout``
        simulated seconds.  (Crashed processes are exempt: they stopped.)
        """

        def done() -> bool:
            return all(
                p.crashed or self.abcasts[pid].delivered_count() >= count
                for pid, p in self.processes.items()
            )

        self.engine.run(until=timeout, max_events=max_events, stop_when=done)
        return done()

    def correct_processes(self) -> frozenset[ProcessId]:
        """Processes that have not crashed so far."""
        return frozenset(
            pid for pid, p in self.processes.items() if not p.crashed
        )

    def close(self) -> None:
        """End the run: cut the wiring's reference cycles.

        The wiring is cyclic by design — the engine's pending events,
        the layers' callback lists, the transports' handler tables and
        the processes' crash listeners all point back up the stack — so
        a finished system would otherwise wait for a full cyclic-GC pass
        to be freed.  After ``close()`` plain refcounting frees it as
        soon as its owner lets go.  ``trace``, ``config``, the network's
        ``frames_sent`` / ``bytes_sent`` / ``frames_dropped`` and the
        engine's ``now`` / ``events_executed`` stay readable; the engine
        refuses to run again.  Idempotent, and O(components).
        """
        self.engine.close()
        for components in (
            self.abcasts, self.consensuses, self.broadcasts,
            self.detectors, self.transports, self.processes,
        ):
            for component in components.values():
                component.close()
        self.network.close()

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_system(
    spec: StackSpec,
    crashes: CrashSchedule | None = None,
    trace: TraceObserver | None = None,
    engine: Engine | None = None,
    rngs: RngRegistry | None = None,
) -> System:
    """Compose a complete system from ``spec`` (and arm the crashes).

    Args:
        spec: The stack to build; every layer name resolves through the
            registries in :mod:`repro.stack.layers`.
        crashes: Crash schedule to arm (default: failure-free).
        trace: Event sink for the run.  Defaults to a full
            :class:`~repro.sim.trace.Trace`; pass a
            :class:`~repro.sim.trace.CountingTrace` for long performance
            runs whose numbers come from probes subscribed as the
            trace's ``sinks`` (checkers and scenario queries require the
            full trace).
        engine: Share an existing engine instead of creating one — the
            seam the sharded service uses to compose k independent
            groups into one simulation (one clock, k disjoint stacks).
            Each group still gets its own network, trace and processes;
            only time is shared.
        rngs: Share (or substitute) the RNG registry.  The sharded
            service passes per-group forks of one root registry so the
            groups' random streams are mutually independent but all
            derive from the experiment seed.
    """
    abcast_entry = layers.ABCASTS.get(spec.abcast)

    f = spec.f
    if f is None:
        # Default to the stack's maximum tolerance at this n.
        f = abcast_entry["default_f"](spec)
    config = SystemConfig(n=spec.n, f=f)

    crashes = crashes or CrashSchedule.none()
    if spec.enforce_resilience:
        crashes.validate_against(config)

    if trace is None:
        trace = Trace()
    if engine is None:
        engine = Engine()
    if rngs is None:
        rngs = RngRegistry(seed=spec.seed)

    network = layers.NETWORKS.get(spec.network).factory(spec, engine, rngs)

    processes = {
        pid: SimProcess(pid, engine, trace) for pid in config.processes
    }
    transports = {
        pid: Transport(processes[pid], network) for pid in config.processes
    }

    ctx = BuildContext(
        spec=spec,
        config=config,
        engine=engine,
        trace=trace,
        rngs=rngs,
        network=network,
        processes=processes,
        transports=transports,
    )
    ctx.detectors.update(layers.FAILURE_DETECTORS.get(spec.fd).factory(ctx))

    broadcasts: dict[ProcessId, object] = {}
    consensuses: dict[ProcessId, object] = {}
    system = System(
        spec=spec,
        config=config,
        engine=engine,
        trace=trace,
        rngs=rngs,
        network=network,
        processes=processes,
        transports=transports,
        detectors=ctx.detectors,
        broadcasts=broadcasts,
        consensuses=consensuses,
    )

    for pid in config.processes:
        broadcast, consensus, abcast = abcast_entry.factory(ctx, pid)
        if broadcast is not None:
            broadcasts[pid] = broadcast
        if consensus is not None:
            consensuses[pid] = consensus
        system.abcasts[pid] = abcast

    crashes.apply(engine, processes)
    return system
