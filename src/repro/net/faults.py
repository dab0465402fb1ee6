"""Declarative link-level fault injection.

Fault rules are frozen dataclasses of primitives: picklable (so crafted
scenarios travel through the multiprocessing pool of
:func:`~repro.harness.runner.run_suite`) and content-hashable (so they
participate in the on-disk result cache key — two sweeps injecting the
same faults share cached points, and changing a rule is a cache miss).

Four rule kinds cover the fault vocabulary:

* :class:`LossRule` — drop matching frames, either probabilistically
  (drawn from the deterministic ``net.loss`` RNG stream) or
  deterministically (the *nth* matching frame).
* :class:`DuplicationRule` — deliver extra copies of matching frames
  (``net.dup`` stream), modelling retransmission storms and NIC bugs.
* :class:`DelayRule` — override or stretch the one-way latency of
  matching frames.  This is the declarative replacement for the old
  ``delay_fn`` callable; the crafted Section 2.2 and Section 3.3.2
  scenarios are ordered rule lists (first match wins).
* :class:`PartitionWindow` — a timed network partition: between
  ``start`` and ``end`` frames crossing group boundaries are dropped.

All rules are applied by the :class:`FaultPipeline` that every
:class:`~repro.net.models.Network` runs its send path through.  With no
rules installed the pipeline is inert: no RNG stream is ever drawn from
and no extra events are scheduled, so fault-free runs are bit-identical
to a network built without a pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import ProcessId
from repro.net.frame import Frame, is_data_kind
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import RngRegistry

#: Names of the RNG streams the probabilistic rules draw from.
LOSS_STREAM = "net.loss"
DUP_STREAM = "net.dup"


@dataclass(frozen=True)
class LinkRule:
    """Base class: which frames a rule applies to.

    A frame matches when every constraint that is set agrees with it;
    unset constraints (``None`` / empty prefix) match everything.

    Attributes:
        src: Only frames from this sender (``None`` = any).
        dst: Only frames to this destination (``None`` = any).
        kind_prefix: Only frames whose ``kind`` starts with this string
            (``""`` = any; an exact kind is its own prefix).
        control: Only control (``True``) or only data (``False``)
            frames, by :func:`~repro.net.frame.is_data_kind`; ``None`` =
            both classes.
    """

    src: ProcessId | None = None
    dst: ProcessId | None = None
    kind_prefix: str = ""
    control: bool | None = None

    def matches(self, frame: Frame) -> bool:
        """True iff ``frame`` satisfies every set constraint."""
        if self.src is not None and frame.src != self.src:
            return False
        if self.dst is not None and frame.dst != self.dst:
            return False
        if self.kind_prefix and not frame.kind.startswith(self.kind_prefix):
            return False
        control = self.control
        if control is not None and is_data_kind(frame.kind) == control:
            return False
        return True


@dataclass(frozen=True)
class LossRule(LinkRule):
    """Drop matching frames.

    Exactly one loss mechanism must be configured:

    * ``probability`` — each matching frame is dropped independently
      with this probability, drawn from the ``net.loss`` stream;
    * ``nth`` — the i-th matching frames (1-based, counted per rule)
      are dropped deterministically, for crafted executions that need
      "the second ack is lost" precision.
    """

    probability: float = 0.0
    nth: tuple[int, ...] = ()
    rule_kind: str = field(default="loss", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nth", tuple(self.nth))
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"LossRule.probability must be in [0, 1], got {self.probability}"
            )
        if self.probability > 0 and self.nth:
            raise ConfigurationError(
                "LossRule takes probability OR nth, not both"
            )
        if self.probability == 0 and not self.nth:
            raise ConfigurationError(
                "LossRule needs a probability > 0 or explicit nth frames"
            )
        if any(i < 1 for i in self.nth):
            raise ConfigurationError("LossRule.nth counts frames from 1")


@dataclass(frozen=True)
class DuplicationRule(LinkRule):
    """Deliver ``copies`` extra copies of matching frames.

    With ``probability < 1`` each matching frame is duplicated
    independently (one ``net.dup`` draw per matching frame).
    """

    probability: float = 1.0
    copies: int = 1
    rule_kind: str = field(default="dup", init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"DuplicationRule.probability must be in (0, 1], "
                f"got {self.probability}"
            )
        if self.copies < 1:
            raise ConfigurationError("DuplicationRule.copies must be >= 1")


@dataclass(frozen=True)
class DelayRule(LinkRule):
    """Override or stretch the one-way delay of matching frames.

    The first matching :class:`DelayRule` (in installation order) wins;
    later rules are not consulted.  Encode "slow class X, normal rest"
    as a specific rule followed by a catch-all.

    Attributes:
        delay: Replacement one-way delay in seconds for the constant
            network (``None`` = keep the model's own delay).  The
            contention model has no single one-way delay to replace, so
            it honours only ``extra``.
        extra: Additional propagation latency in seconds, applied by
            both models after their own delay (a loaded router, a WAN
            hop).
    """

    delay: float | None = None
    extra: float = 0.0
    rule_kind: str = field(default="delay", init=False)

    def __post_init__(self) -> None:
        if self.delay is not None and self.delay < 0:
            raise ConfigurationError("DelayRule.delay must be >= 0")
        if self.extra < 0:
            raise ConfigurationError("DelayRule.extra must be >= 0")
        if self.delay is None and self.extra == 0.0:
            raise ConfigurationError(
                "DelayRule needs a delay override and/or a positive extra"
            )


@dataclass(frozen=True)
class PartitionWindow:
    """A timed partition: ``groups`` cannot exchange frames in
    ``[start, end)``.

    Frames are blocked at send time when their source and destination
    sit in different groups; processes not named in any group form one
    implicit extra group (they keep talking to each other, but not
    across the partition).  Frames already in flight when the window
    opens are delivered — a partition severs links, it does not
    retroactively unsend datagrams.
    """

    start: float
    end: float
    groups: tuple[tuple[ProcessId, ...], ...]
    rule_kind: str = field(default="partition", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(tuple(g) for g in self.groups)
        )
        if not 0 <= self.start < self.end:
            raise ConfigurationError(
                "PartitionWindow needs 0 <= start < end, got "
                f"[{self.start}, {self.end})"
            )
        if not self.groups or any(not g for g in self.groups):
            raise ConfigurationError(
                "PartitionWindow.groups must be non-empty groups"
            )
        seen: set[ProcessId] = set()
        for group in self.groups:
            for pid in group:
                if pid in seen:
                    raise ConfigurationError(
                        f"p{pid} appears in two partition groups"
                    )
                seen.add(pid)

    def _group_of(self, pid: ProcessId) -> int:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        return -1  # the implicit group of unlisted processes

    def severs(self, src: ProcessId, dst: ProcessId, now: float) -> bool:
        """True iff a frame src->dst sent at ``now`` is blocked."""
        if src == dst or not self.start <= now < self.end:
            return False
        return self._group_of(src) != self._group_of(dst)


#: Every type a :class:`~repro.stack.builder.StackSpec` accepts in its
#: ``faults`` tuple.
FAULT_RULE_TYPES = (LossRule, DuplicationRule, DelayRule, PartitionWindow)


def validate_fault_rules(rules: tuple) -> tuple:
    """Canonicalise and type-check a fault-rule tuple (builder helper)."""
    rules = tuple(rules)
    for rule in rules:
        if not isinstance(rule, FAULT_RULE_TYPES):
            raise ConfigurationError(
                f"unknown fault rule {rule!r}; use LossRule, "
                "DuplicationRule, DelayRule or PartitionWindow"
            )
    return rules


class FaultPipeline:
    """Applies an ordered rule list to every frame entering a network.

    The pipeline is deliberately stateful where the rules are not: it
    owns the per-rule match counters (for ``nth`` losses) and the lazy
    RNG streams, so the same frozen rule objects can be shared between
    runs without leaking state.

    Statistics (``lost``, ``duplicated``, ``partitioned``) let tests
    and reports attribute drops to their cause.
    """

    def __init__(
        self,
        engine: Engine,
        rules: tuple = (),
        rngs: "RngRegistry | None" = None,
    ) -> None:
        self.engine = engine
        self.rules = validate_fault_rules(rules)
        self._rngs = rngs
        self._loss: list[LossRule] = []
        self._dup: list[DuplicationRule] = []
        self._delay: list[DelayRule] = []
        self._partitions: list[PartitionWindow] = []
        for rule in self.rules:
            if isinstance(rule, LossRule):
                self._loss.append(rule)
            elif isinstance(rule, DuplicationRule):
                self._dup.append(rule)
            elif isinstance(rule, DelayRule):
                self._delay.append(rule)
            else:
                self._partitions.append(rule)
        needs_rng = any(
            (isinstance(r, LossRule) and r.probability > 0)
            or (isinstance(r, DuplicationRule) and r.probability < 1.0)
            for r in self.rules
        )
        if needs_rng and rngs is None:
            raise ConfigurationError(
                "probabilistic fault rules need an RngRegistry "
                "(their draws come from the net.loss / net.dup streams)"
            )
        self._match_counts: dict[int, int] = {}
        #: True while :meth:`admit` can change a frame's fate (a loss or
        #: duplication rule, or a partition window).  The network asks
        #: only then; an unarmed pipeline admits every frame unchanged.
        self.armed = bool(self._loss or self._dup or self._partitions)
        #: True iff a :class:`DelayRule` is installed (fixed at
        #: construction), i.e. ``delay_rule_for`` can return one.
        self.has_delay = bool(self._delay)
        #: Frames dropped by loss rules.
        self.lost = 0
        #: Extra copies injected by duplication rules.
        self.duplicated = 0
        #: Frames blocked by partition windows.
        self.partitioned = 0

    # ------------------------------------------------------------------
    # Send-path decisions
    # ------------------------------------------------------------------

    def admit(self, frame: Frame) -> list[Frame]:
        """Fate of ``frame``: ``[]`` drop, ``[frame]`` pass, or
        ``[frame, frame, ...]`` with duplicate copies appended."""
        now = self.engine.now
        for window in self._partitions:
            if window.severs(frame.src, frame.dst, now):
                self.partitioned += 1
                return []
        for index, rule in enumerate(self._loss):
            if not rule.matches(frame):
                continue
            if rule.nth:
                count = self._match_counts.get(index, 0) + 1
                self._match_counts[index] = count
                if count in rule.nth:
                    self.lost += 1
                    return []
            elif self._stream(LOSS_STREAM).random() < rule.probability:
                self.lost += 1
                return []
        copies = [frame]
        for rule in self._dup:
            if not rule.matches(frame):
                continue
            if (
                rule.probability >= 1.0
                or self._stream(DUP_STREAM).random() < rule.probability
            ):
                copies.extend([frame] * rule.copies)
                self.duplicated += rule.copies
        return copies

    def delay_rule_for(self, frame: Frame) -> DelayRule | None:
        """The first matching delay rule, or ``None``."""
        for rule in self._delay:
            if rule.matches(frame):
                return rule
        return None

    def extra_delay(self, frame: Frame) -> float:
        """Additive propagation latency for ``frame`` (0.0 = none)."""
        rule = self.delay_rule_for(frame)
        return rule.extra if rule is not None else 0.0

    def _stream(self, name: str):
        assert self._rngs is not None  # enforced at construction
        return self._rngs.stream(name)
