"""Declarative crash-fault injection.

A :class:`CrashSchedule` lists ``(process, time)`` pairs; applying it to
a simulation arranges for each process to crash at its appointed time.
Crash-stop semantics are implemented by :class:`~repro.sim.process.
SimProcess` (no further steps) and the network models (inbound frames
dropped; optionally, in-flight frames of the crashed sender lost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.core.exceptions import ConfigurationError, ResilienceExceededError
from repro.core.identifiers import ProcessId
from repro.sim.engine import Engine
from repro.sim.process import SimProcess


@dataclass(frozen=True)
class CrashSchedule:
    """Crashes to inject: a tuple of ``(process, time)`` pairs."""

    crashes: tuple[tuple[ProcessId, float], ...] = ()

    @classmethod
    def none(cls) -> "CrashSchedule":
        """The failure-free schedule used by the performance benches."""
        return cls(())

    @classmethod
    def single(cls, process: ProcessId, time: float) -> "CrashSchedule":
        """Crash exactly one process at ``time``."""
        return cls(((process, time),))

    @classmethod
    def of(cls, *crashes: tuple[ProcessId, float]) -> "CrashSchedule":
        """Build a schedule from explicit pairs."""
        return cls(tuple(crashes))

    def __post_init__(self) -> None:
        seen: set[ProcessId] = set()
        for pid, time in self.crashes:
            if time < 0:
                raise ConfigurationError(f"crash time must be >= 0, got {time}")
            if pid in seen:
                raise ConfigurationError(f"p{pid} scheduled to crash twice")
            seen.add(pid)

    @property
    def faulty(self) -> frozenset[ProcessId]:
        """Processes that crash at some point under this schedule."""
        return frozenset(pid for pid, _ in self.crashes)

    def crash_time(self, pid: ProcessId) -> float | None:
        for proc, time in self.crashes:
            if proc == pid:
                return time
        return None

    def validate_against(self, config: SystemConfig) -> None:
        """Fail fast if the schedule crashes more than ``config.f`` processes."""
        for pid in self.faulty:
            if pid not in config.processes:
                raise ConfigurationError(f"crash schedule names unknown p{pid}")
        if len(self.faulty) > config.f:
            raise ResilienceExceededError(
                f"schedule crashes {len(self.faulty)} processes "
                f"but the configuration tolerates f={config.f}"
            )

    def apply(self, engine: Engine, processes: dict[ProcessId, SimProcess]) -> None:
        """Arm the schedule on ``engine``."""
        for pid, time in self.crashes:
            engine.schedule_at(time, processes[pid].crash)
