"""The default layer catalog: every shipped variant, registered.

One :class:`~repro.stack.registry.LayerRegistry` per layer family, with
the factories the composer in :mod:`repro.stack.builder` resolves by
name.  Compatibility constraints, frame-kind ownership, and per-entry
``StackSpec`` validation all live on the entries, so adding a protocol
variant is *one* registration here (or in any module the caller
imports) — no edits to the composer, the spec validator, or the sweep
harness.  The fixed-sequencer baseline and the closed-loop workload are
the worked examples: both are plain registrations at the bottom of this
module.

Factory calling conventions (enforced by the composer):

* ``network``:   ``factory(spec, engine, rngs) -> Network``
* ``fd``:        ``factory(ctx) -> dict[pid, FailureDetector]``
* ``rb``:        ``factory(ctx, pid) -> BroadcastService``
* ``consensus``: ``meta["cls"]`` (or ``None``) + ``meta["extra_kwargs"]``
* ``abcast``:    ``factory(ctx, pid) -> (broadcast | None,
  consensus | None, abcast)`` — the per-process assembly of the layers
  beneath the reduction, so a stack that needs no consensus (the
  sequencer) simply builds none
* ``workload``:  ``factory(system, *, throughput, payload_size,
  duration, arrivals) -> generator`` with ``install()`` and ``sent``
* ``topology``:  ``factory(...) -> Topology`` (named shapes for docs
  and ``--list-variants``; ``StackSpec.topology`` takes the object)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.abcast.faulty_ids import FaultyIdsAtomicBroadcast
from repro.abcast.indirect import IndirectAtomicBroadcast
from repro.abcast.on_messages import OnMessagesAtomicBroadcast
from repro.abcast.sequencer import SequencerAtomicBroadcast
from repro.abcast.urb_ids import UrbIdsAtomicBroadcast
from repro.broadcast.flood import FloodReliableBroadcast
from repro.broadcast.sender import SenderReliableBroadcast
from repro.broadcast.uniform import UniformReliableBroadcast
from repro.consensus.base import ID_SET_CODEC, MESSAGE_SET_CODEC
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.consensus.mostefaoui_raynal import MostefaouiRaynalConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError
from repro.failure.detector import wire_oracle_detectors
from repro.failure.heartbeat import wire_heartbeat_detectors
from repro.net.models import ConstantLatencyNetwork, ContentionNetwork
from repro.net.topology import Topology
from repro.stack.registry import LayerRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack.builder import BuildContext, StackSpec

NETWORKS = LayerRegistry("network")
TOPOLOGIES = LayerRegistry("topology")
FAILURE_DETECTORS = LayerRegistry("fd")
BROADCASTS = LayerRegistry("rb")
CONSENSUS = LayerRegistry("consensus")
ABCASTS = LayerRegistry("abcast")
WORKLOADS = LayerRegistry("workload")

#: The registries ``--list-variants`` prints, in stack order (top down).
FAMILIES: tuple[LayerRegistry, ...] = (
    WORKLOADS,
    ABCASTS,
    CONSENSUS,
    BROADCASTS,
    FAILURE_DETECTORS,
    NETWORKS,
    TOPOLOGIES,
)


# ----------------------------------------------------------------------
# Network models
# ----------------------------------------------------------------------


def _build_contention(spec: "StackSpec", engine, rngs) -> ContentionNetwork:
    return ContentionNetwork(
        engine,
        spec.params,
        drop_in_flight_of_crashed_sender=spec.drop_in_flight_on_crash,
        faults=spec.faults,
        rngs=rngs,
        topology=spec.topology,
    )


def _build_constant(spec: "StackSpec", engine, rngs) -> ConstantLatencyNetwork:
    return ConstantLatencyNetwork(
        engine,
        base=spec.constant_latency,
        per_byte=spec.constant_per_byte,
        jitter=spec.constant_jitter,
        rng=rngs.stream("net.jitter") if spec.constant_jitter > 0 else None,
        drop_in_flight_of_crashed_sender=spec.drop_in_flight_on_crash,
        faults=spec.faults,
        rngs=rngs,
        topology=spec.topology,
    )


def _validate_constant_knobs(spec: "StackSpec") -> None:
    # Registered on *both* network entries: the knobs are inert under
    # the contention model, but a negative value is a typo either way
    # and has always been rejected regardless of the selected network.
    for name in ("constant_latency", "constant_per_byte", "constant_jitter"):
        if getattr(spec, name) < 0:
            raise ConfigurationError(f"StackSpec.{name} must be >= 0")


NETWORKS.register(
    "contention",
    "CPU + shared-medium FIFO contention (the paper's performance model)",
    factory=_build_contention,
    validate_spec=_validate_constant_knobs,
)
NETWORKS.register(
    "constant",
    "fixed per-frame latency (+ per-byte cost and jitter); no queueing",
    factory=_build_constant,
    validate_spec=_validate_constant_knobs,
)

TOPOLOGIES.register(
    "single",
    "one shared segment (the paper's LAN)",
    factory=Topology.single,
)
TOPOLOGIES.register(
    "split",
    "process groups on separate contention segments joined by a router",
    factory=Topology.split,
)


# ----------------------------------------------------------------------
# Failure detectors
# ----------------------------------------------------------------------


def _wire_oracle(ctx: "BuildContext") -> dict:
    return wire_oracle_detectors(
        ctx.processes,
        detection_delay=ctx.spec.fd_detection_delay,
        false_suspicions=ctx.spec.false_suspicions,
    )


def _wire_heartbeat(ctx: "BuildContext") -> dict:
    return wire_heartbeat_detectors(
        ctx.transports,
        interval=ctx.spec.heartbeat_interval,
        timeout=ctx.spec.heartbeat_timeout,
    )


FAILURE_DETECTORS.register(
    "oracle",
    "ground-truth ◇P: suspects fd_detection_delay after a real crash",
    factory=_wire_oracle,
)
FAILURE_DETECTORS.register(
    "heartbeat",
    "message-based ◇S with adaptive timeouts",
    factory=_wire_heartbeat,
    frame_kinds=("fd.heartbeat",),
)


# ----------------------------------------------------------------------
# Reliable broadcast
# ----------------------------------------------------------------------

BROADCASTS.register(
    "flood",
    "relay-on-first-receipt RB, O(n^2) messages (Figs. 5/7a)",
    factory=lambda ctx, pid: FloodReliableBroadcast(ctx.transports[pid]),
    frame_kinds=("rb2.data",),
    meta={"selectable": True, "uniform": False},
)
BROADCASTS.register(
    "sender",
    "FD-relayed RB, O(n) messages in good runs (Figs. 6/7b)",
    factory=lambda ctx, pid: SenderReliableBroadcast(
        ctx.transports[pid], ctx.detectors[pid]
    ),
    frame_kinds=("rb1.data",),
    meta={"selectable": True, "uniform": False},
)
BROADCASTS.register(
    "uniform",
    "uniform RB (ack-stability), O(n^2) on the data path (Section 4.4)",
    factory=lambda ctx, pid: UniformReliableBroadcast(
        ctx.transports[pid], ctx.config
    ),
    frame_kinds=("urb.data",),
    meta={"selectable": False, "uniform": True},
)


# ----------------------------------------------------------------------
# Consensus
# ----------------------------------------------------------------------


def _ct_kwargs(spec: "StackSpec") -> dict:
    return {"missing_policy": spec.ct_missing_policy}


def _no_kwargs(spec: "StackSpec") -> dict:
    return {}


CONSENSUS.register(
    "ct",
    "original Chandra-Toueg ◇S consensus (f < n/2)",
    frame_kinds=("ct.est", "ct.prop", "ct.ack", "ct.decide"),
    meta={"cls": ChandraTouegConsensus, "extra_kwargs": _ct_kwargs},
)
CONSENSUS.register(
    "mr",
    "original Mostefaoui-Raynal ◇S consensus (f < n/2)",
    frame_kinds=("mr.echo", "mr.decide"),
    meta={"cls": MostefaouiRaynalConsensus, "extra_kwargs": _no_kwargs},
)
CONSENSUS.register(
    "ct-indirect",
    "Algorithm 2: CT with rcv-gated proposals and the No loss property",
    frame_kinds=("cti.est", "cti.prop", "cti.ack", "cti.decide"),
    meta={"cls": CTIndirectConsensus, "extra_kwargs": _ct_kwargs},
)
CONSENSUS.register(
    "mr-indirect",
    "Algorithm 3: MR with rcv-gated adoption (f < n/3)",
    frame_kinds=("mri.echo", "mri.decide"),
    meta={"cls": MRIndirectConsensus, "extra_kwargs": _no_kwargs},
)
CONSENSUS.register(
    "none",
    "no consensus layer (for stacks that order without it)",
    meta={"cls": None, "extra_kwargs": _no_kwargs},
)


# ----------------------------------------------------------------------
# Atomic broadcast
# ----------------------------------------------------------------------


def _consensus_default_f(spec: "StackSpec") -> int:
    cls = CONSENSUS.get(spec.consensus)["cls"]
    return cls.resilience_bound(SystemConfig(n=spec.n, f=0))


def _build_reduction_stack(ctx: "BuildContext", pid, abcast_cls):
    """Per-process assembly shared by the four Algorithm-1 stacks."""
    spec = ctx.spec
    entry = ABCASTS.get(spec.abcast)
    rb_name = entry.get("rb_override") or spec.rb
    broadcast = BROADCASTS.get(rb_name).factory(ctx, pid)

    transport = ctx.transports[pid]
    charge_rcv = None
    if isinstance(ctx.network, ContentionNetwork):
        network = ctx.network
        charge_rcv = (
            lambda lookups, _pid=pid: network.charge_rcv_lookups(_pid, lookups)
        )
    consensus_entry = CONSENSUS.get(spec.consensus)
    consensus = consensus_entry["cls"](
        transport,
        ctx.config,
        ctx.detectors[pid],
        entry["codec"],
        charge_rcv=charge_rcv,
        enforce_resilience=spec.enforce_resilience,
        **consensus_entry["extra_kwargs"](spec),
    )
    abcast = abcast_cls(
        transport, broadcast, consensus, ctx.config, batch_cap=spec.batch_cap
    )
    return broadcast, consensus, abcast


def _reduction_factory(abcast_cls):
    return lambda ctx, pid: _build_reduction_stack(ctx, pid, abcast_cls)


ABCASTS.register(
    "indirect",
    "Algorithm 1 over *indirect* consensus — the paper's correct, fast stack",
    factory=_reduction_factory(IndirectAtomicBroadcast),
    meta={
        "compatible_consensus": ("ct-indirect", "mr-indirect"),
        "codec": ID_SET_CODEC,
        "rb_override": None,
        "default_f": _consensus_default_f,
    },
)
ABCASTS.register(
    "faulty-ids",
    "RB + unmodified consensus on ids — the unsafe Section 2.2 baseline",
    factory=_reduction_factory(FaultyIdsAtomicBroadcast),
    meta={
        "compatible_consensus": ("ct", "mr"),
        "codec": ID_SET_CODEC,
        "rb_override": None,
        "default_f": _consensus_default_f,
    },
)
ABCASTS.register(
    "urb-ids",
    "uniform RB + unmodified consensus on ids — correct but pays URB",
    factory=_reduction_factory(UrbIdsAtomicBroadcast),
    meta={
        "compatible_consensus": ("ct", "mr"),
        "codec": ID_SET_CODEC,
        "rb_override": "uniform",
        "default_f": _consensus_default_f,
    },
)
ABCASTS.register(
    "on-messages",
    "classical reduction: consensus on full message sets (Fig. 1 baseline)",
    factory=_reduction_factory(OnMessagesAtomicBroadcast),
    meta={
        "compatible_consensus": ("ct", "mr"),
        "codec": MESSAGE_SET_CODEC,
        "rb_override": None,
        "default_f": _consensus_default_f,
    },
)


def _build_sequencer_stack(ctx: "BuildContext", pid):
    abcast = SequencerAtomicBroadcast(
        ctx.transports[pid], ctx.detectors[pid], ctx.config
    )
    return None, None, abcast


ABCASTS.register(
    "sequencer",
    "fixed-sequencer ordering with FD-driven epoch handover (no consensus)",
    factory=_build_sequencer_stack,
    frame_kinds=(
        "seq.fwd", "seq.order", "seq.wedge", "seq.state", "seq.seal",
        "seq.sync", "seq.repair",
    ),
    meta={
        "compatible_consensus": ("none",),
        "codec": None,
        "rb_override": None,
        "default_f": lambda spec: spec.n - 1,
    },
)


# ----------------------------------------------------------------------
# Workloads (factories bind lazily: generators import the builder)
# ----------------------------------------------------------------------


def _symmetric_workload(system, **kwargs):
    from repro.workload.generators import SymmetricWorkload

    return SymmetricWorkload(system, **kwargs)


def _closed_loop_workload(system, **kwargs):
    from repro.workload.generators import ClosedLoopWorkload

    return ClosedLoopWorkload(system, **kwargs)


WORKLOADS.register(
    "symmetric",
    "open-loop: every process sends at throughput/n, Poisson or uniform",
    factory=_symmetric_workload,
)
WORKLOADS.register(
    "closed-loop",
    "each client waits for its own adelivery (+ think time) before sending",
    factory=_closed_loop_workload,
)


def _poisson_workload(system, **kwargs):
    from repro.workload.openloop import PoissonWorkload

    return PoissonWorkload(system, **kwargs)


def _bursty_workload(system, **kwargs):
    from repro.workload.openloop import BurstyWorkload

    return BurstyWorkload(system, **kwargs)


# ``aggregate`` marks sources that model the whole client population as
# one arrival process and accept a ``sink=`` kwarg — the property the
# shard sweep needs to interpose router admission control.
WORKLOADS.register(
    "poisson",
    "open-loop aggregate: one Poisson arrival process for the group",
    factory=_poisson_workload,
    meta={"aggregate": True},
)
WORKLOADS.register(
    "bursty",
    "open-loop aggregate: MMPP on/off bursts, average rate = throughput",
    factory=_bursty_workload,
    meta={"aggregate": True},
)


# ----------------------------------------------------------------------
# Spec validation and variant enumeration
# ----------------------------------------------------------------------


def validate_stack_spec(spec: "StackSpec") -> None:
    """Registry-driven validation of a :class:`StackSpec`'s layer names.

    Raises :class:`ConfigurationError` naming the offending registry
    entry — with a closest-match suggestion for typos.
    """
    abcast = ABCASTS.get(spec.abcast)
    if spec.consensus not in CONSENSUS:
        raise ConfigurationError(CONSENSUS.unknown_message(spec.consensus))
    allowed = abcast["compatible_consensus"]
    if spec.consensus not in allowed:
        raise ConfigurationError(
            f"abcast registry entry {spec.abcast!r} requires consensus in "
            f"{allowed}, got {spec.consensus!r}"
        )
    rb = BROADCASTS.get(spec.rb)
    if not rb.get("selectable", True):
        raise ConfigurationError(
            f"rb registry entry {spec.rb!r} is not directly selectable "
            f"(choose from "
            f"{[e.name for e in BROADCASTS if e.get('selectable', True)]})"
        )
    for entry in (abcast, rb, NETWORKS.get(spec.network),
                  FAILURE_DETECTORS.get(spec.fd)):
        if entry.validate_spec is not None:
            entry.validate_spec(spec)


def compatible_combinations() -> Iterator[tuple[str, str, str, str]]:
    """Every ``(abcast, consensus, rb, fd)`` combo the constraints allow.

    The canonical enumeration for smoke tests and ``--list-variants``:
    abcast entries that override the diffusion layer (``urb-ids``) or
    mount none (``sequencer``) contribute a single ``rb`` choice instead
    of multiplying over an axis they ignore.
    """
    selectable_rbs = [
        e.name for e in BROADCASTS if e.get("selectable", True)
    ]
    for abcast in ABCASTS:
        rbs = selectable_rbs
        if abcast.get("rb_override") or abcast["compatible_consensus"] == ("none",):
            rbs = selectable_rbs[:1]
        for consensus in abcast["compatible_consensus"]:
            for rb in rbs:
                for fd in FAILURE_DETECTORS.names():
                    yield abcast.name, consensus, rb, fd
