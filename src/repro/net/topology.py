"""Multi-segment network topologies.

The paper's clusters are a single shared Ethernet segment — every frame
contends for one transmission medium.  A :class:`Topology` generalises
that: processes are mapped onto *contention segments*, each with its own
medium, joined by a router that adds a fixed store-and-forward latency
per crossing.  This opens the multi-LAN / WAN scenario space (how do the
four stacks degrade when the group spans two switches?) without touching
any protocol code.

Like the fault rules, a topology is a frozen dataclass of primitives:
picklable, hashable, and part of the experiment cache key.

The default (``Topology.single()``, or simply no topology at all) keeps
today's behaviour bit-identical: one medium, no router.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import ProcessId


@dataclass(frozen=True)
class Topology:
    """Processes mapped onto contention segments.

    Attributes:
        segments: One tuple of process ids per segment.  Every process
            of the system must appear in exactly one segment.  An empty
            ``segments`` means "everyone on one shared segment" (the
            paper's setting).
        router_latency: Store-and-forward latency in seconds added per
            inter-segment crossing (switch/router forwarding time).
            Irrelevant for single-segment topologies.
    """

    segments: tuple[tuple[ProcessId, ...], ...] = ()
    router_latency: float = 50e-6

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "segments", tuple(tuple(s) for s in self.segments)
        )
        if self.router_latency < 0:
            raise ConfigurationError("Topology.router_latency must be >= 0")
        placement: dict[ProcessId, int] = {}
        for index, segment in enumerate(self.segments):
            if not segment:
                raise ConfigurationError("Topology segments must be non-empty")
            for pid in segment:
                if pid in placement:
                    raise ConfigurationError(
                        f"p{pid} appears in two topology segments"
                    )
                placement[pid] = index
        # Derived from ``segments`` (not a field: equality, hashing and
        # the cache key see the primitives only).
        object.__setattr__(self, "_placement", placement)

    @classmethod
    def single(cls) -> "Topology":
        """The paper's topology: one shared segment."""
        return cls(segments=())

    @classmethod
    def split(
        cls, *segments: tuple[ProcessId, ...], router_latency: float = 50e-6
    ) -> "Topology":
        """Convenience constructor from explicit segment tuples."""
        return cls(segments=tuple(segments), router_latency=router_latency)

    @property
    def segment_count(self) -> int:
        return max(1, len(self.segments))

    def segment_of(self, pid: ProcessId) -> int:
        """Index of the segment hosting ``pid``."""
        if not self.segments:
            return 0
        index = self._placement.get(pid)
        if index is None:
            raise ConfigurationError(f"p{pid} is not placed on any segment")
        return index

    def crosses(self, src: ProcessId, dst: ProcessId) -> bool:
        """True iff a frame src->dst must traverse the router."""
        return self.segment_of(src) != self.segment_of(dst)

    def validate_for(self, n: int) -> None:
        """Check that processes 1..n are each placed exactly once."""
        if not self.segments:
            return
        placed = {pid for segment in self.segments for pid in segment}
        expected = set(range(1, n + 1))
        if placed != expected:
            missing = sorted(expected - placed)
            extra = sorted(placed - expected)
            detail = []
            if missing:
                detail.append(f"unplaced processes {missing}")
            if extra:
                detail.append(f"unknown processes {extra}")
            raise ConfigurationError(
                f"topology does not cover processes 1..{n}: "
                + ", ".join(detail)
            )
