"""Protocol-level event records.

Every externally meaningful action a protocol takes — ``abroadcast``,
``adeliver``, ``rbroadcast``, ``rdeliver``, ``propose``, ``decide``, and
process crashes — is recorded as one of the frozen dataclasses below,
stamped with the simulated time and the acting process.

The trace of these events is the interface between a simulation run and
the property checkers in :mod:`repro.checkers`: the formal properties of
the paper (Validity, Uniform integrity, Uniform agreement, Uniform total
order, No loss, ...) are all predicates over event traces, and that is
literally how the checkers evaluate them.

The protocol layers do not build these records themselves: they call
the trace's typed recorders (``trace.adeliver(now, pid, message)``,
...).  A full :class:`~repro.sim.trace.Trace` keeps each action as one
row of parallel columns and builds the event only when it is read
(:attr:`~repro.sim.trace.Trace.events` is a view) or when a sink (a
metric probe, the streaming abcast checker) is subscribed, so a run
that keeps its trace holds no event objects.  Where events are built
(hundreds of thousands on a loaded run) construction is on the hot
path: fields are passed positionally, and :func:`_fast_init` gives
every class an ``__init__`` that stores each field through its slot
descriptor instead of the frozen dataclass's ``object.__setattr__`` per
field.  The classes stay frozen, hashable and equal by value.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

from repro.core.identifiers import MessageId, ProcessId
from repro.core.message import AppMessage


def _fast_init(cls: type) -> type:
    """Install an ``__init__`` on the frozen slotted dataclass ``cls``.

    Same signature as the generated one (fields in order, defaults
    kept), but each field is written with its slot's member descriptor
    (``cls.<field>.__set__``), which bypasses the frozen
    ``__setattr__`` guard exactly as the generated ``__init__`` does
    with ``object.__setattr__``, at about half the cost.
    """
    namespace: dict = {}
    params = ["self"]
    body = []
    for f in fields(cls):
        namespace[f"set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"default_{f.name}"] = f.default
            params.append(f"{f.name}=default_{f.name}")
        body.append(f"    set_{f.name}(self, {f.name})")
    exec(f"def __init__({', '.join(params)}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_fast_init
@dataclass(frozen=True, slots=True)
class ProtocolEvent:
    """Base class: something observable happened at ``process`` at ``time``."""

    time: float
    process: ProcessId


@_fast_init
@dataclass(frozen=True, slots=True)
class ABroadcastEvent(ProtocolEvent):
    """``abroadcast(m)`` was invoked (Algorithm 1 line 7)."""

    message: AppMessage


@_fast_init
@dataclass(frozen=True, slots=True)
class ADeliverEvent(ProtocolEvent):
    """``adeliver(m)`` occurred (Algorithm 1 line 24)."""

    message: AppMessage


@_fast_init
@dataclass(frozen=True, slots=True)
class RBroadcastEvent(ProtocolEvent):
    """A reliable (or uniform reliable) broadcast was initiated."""

    message: AppMessage
    uniform: bool = False


@_fast_init
@dataclass(frozen=True, slots=True)
class RDeliverEvent(ProtocolEvent):
    """A reliable (or uniform reliable) delivery occurred."""

    message: AppMessage
    uniform: bool = False


@_fast_init
@dataclass(frozen=True, slots=True)
class ProposeEvent(ProtocolEvent):
    """``propose(k, v, rcv)`` for consensus instance ``k``.

    ``value`` is the identifier set the proposal orders.  A full trace
    records an equal set once (:meth:`~repro.sim.trace.TraceObserver.share`),
    so the propose and decide events of an instance share it.
    """

    instance: int
    value: frozenset[MessageId]


@_fast_init
@dataclass(frozen=True, slots=True)
class DecideEvent(ProtocolEvent):
    """``decide(k, v)`` for consensus instance ``k``.

    Who held ``msgs(v)`` at the first decision — the observation the No
    loss checker needs — is derived from the trace's r-deliveries
    (:meth:`~repro.sim.trace.Trace.holders_at`), not stored here.
    """

    instance: int
    value: frozenset[MessageId]


@_fast_init
@dataclass(frozen=True, slots=True)
class CrashEvent(ProtocolEvent):
    """``process`` crashed at ``time`` and takes no further steps."""
