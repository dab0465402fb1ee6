"""System-wide configuration shared by every layer of a stack.

A :class:`SystemConfig` answers the questions every algorithm in the
paper asks about its environment: how many processes are there (``n``),
how many of them may crash (``f``), and what are the quorum sizes derived
from those two numbers.

The quorum arithmetic matters: the adaptation of the Mostefaoui-Raynal
algorithm is exactly the story of ``majority_quorum`` (``⌈(n+1)/2⌉``)
being replaced by ``two_thirds_quorum`` (``⌈(2n+1)/3⌉``), which drops the
resilience from ``f < n/2`` to ``f < n/3``.  The quorum sizes live here;
each algorithm's resilience is its class's ``resilience_bound``, and
:func:`~repro.harness.figures.figure2_table` reads both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import ProcessId


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Static description of the process group.

    Attributes:
        n: Number of processes; they are identified ``1 .. n``.
        f: Maximum number of processes that may crash.  Defaults to the
            largest value a majority-based algorithm supports,
            ``⌈n/2⌉ - 1``.
    """

    n: int
    f: int = -1  # sentinel replaced in __post_init__

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"need at least one process, got n={self.n}")
        if self.f == -1:
            object.__setattr__(self, "f", (self.n - 1) // 2)
        if self.f < 0 or self.f >= self.n:
            raise ConfigurationError(
                f"f must satisfy 0 <= f < n, got f={self.f}, n={self.n}"
            )

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        """All process identifiers, ``(1, ..., n)``."""
        return tuple(range(1, self.n + 1))

    @property
    def majority_quorum(self) -> int:
        """``⌈(n+1)/2⌉`` — the quorum of the CT algorithm (Phases 2 and 4)."""
        return math.ceil((self.n + 1) / 2)

    @property
    def two_thirds_quorum(self) -> int:
        """``⌈(2n+1)/3⌉`` — the Phase-2 quorum of indirect MR (Alg. 3 l.22)."""
        return math.ceil((2 * self.n + 1) / 3)

    @property
    def third_quorum(self) -> int:
        """``⌈(n+1)/3⌉`` — the adoption threshold of indirect MR (Alg. 3 l.28)."""
        return math.ceil((self.n + 1) / 3)

    def coordinator(self, round_number: int) -> ProcessId:
        """Rotating coordinator of ``round_number``: ``(r mod n) + 1``.

        Matches line 8 of Algorithm 2 and line 7 of Algorithm 3.
        """
        return (round_number % self.n) + 1

    def stability_threshold(self) -> int:
        """``f + 1`` — processes that must hold ``msgs(v)`` for v-stability.

        A configuration is *v-stable* when ``f + 1`` processes have
        received ``msgs(v)``; at least one of them is then correct, which
        is what the No loss property promises.
        """
        return self.f + 1
