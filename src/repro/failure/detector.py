"""Failure-detector interfaces and the oracle implementations.

Consensus layers query a per-process :class:`FailureDetector` with
``is_suspected(q)`` and subscribe to change notifications so that their
"wait until received ... or c in D_p" conditions (Algorithm 2 line 23,
Algorithm 3 line 14) are re-evaluated the instant the suspect set moves.

The **oracle** detector is driven directly by the simulation's ground
truth: it suspects a process ``detection_delay`` seconds after its
actual crash, and can additionally be scripted with temporary *false*
suspicions.  With finite delay and no false suspicions it realises ◇P
(and therefore ◇S); with scripted false suspicions it exercises the
"unreliable" half of the ◇S contract, which several scenario tests rely
on to push the algorithms into higher rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.core.exceptions import ConfigurationError
from repro.core.identifiers import ProcessId
from repro.sim.process import SimProcess

SuspicionListener = Callable[[], None]


class FailureDetector:
    """Base class: suspect-set bookkeeping and change notification."""

    def __init__(self, process: SimProcess) -> None:
        self.process = process
        self._suspected: set[ProcessId] = set()
        self._listeners: list[SuspicionListener] = []
        #: Counters for tests and diagnostics.
        self.suspicions_raised = 0
        self.suspicions_retracted = 0

    def is_suspected(self, q: ProcessId) -> bool:
        """True iff ``q`` is currently in this process's suspect list."""
        return q in self._suspected

    def suspects(self) -> frozenset[ProcessId]:
        """The current suspect list ``D_p``."""
        return frozenset(self._suspected)

    def on_change(self, listener: SuspicionListener) -> None:
        """Invoke ``listener`` whenever the suspect set changes."""
        self._listeners.append(listener)

    def close(self) -> None:
        """Drop the change listeners; part of
        :meth:`~repro.stack.builder.System.close`."""
        self._listeners = []

    def _suspect(self, q: ProcessId) -> None:
        if q in self._suspected or self.process.crashed:
            return
        self._suspected.add(q)
        self.suspicions_raised += 1
        self._notify()

    def _trust(self, q: ProcessId) -> None:
        if q not in self._suspected or self.process.crashed:
            return
        self._suspected.discard(q)
        self.suspicions_retracted += 1
        self._notify()

    def _notify(self) -> None:
        for listener in self._listeners:
            listener()


class StaticFailureDetector(FailureDetector):
    """A detector whose suspect set is fixed up front.

    Only useful in unit tests of the consensus state machines, where the
    test needs full manual control (it can also mutate the set through
    :meth:`force_suspect` / :meth:`force_trust`).
    """

    def __init__(
        self, process: SimProcess, suspected: frozenset[ProcessId] = frozenset()
    ) -> None:
        super().__init__(process)
        self._suspected = set(suspected)

    def force_suspect(self, q: ProcessId) -> None:
        self._suspect(q)

    def force_trust(self, q: ProcessId) -> None:
        self._trust(q)


@dataclass(frozen=True, slots=True)
class FalseSuspicion:
    """A scripted wrong suspicion: at ``start``, ``observer`` suspects
    ``target`` even though it is alive, retracting at ``end``."""

    observer: ProcessId
    target: ProcessId
    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ConfigurationError("false suspicion needs 0 <= start < end")


class OracleFailureDetector(FailureDetector):
    """Ground-truth detector with detection delay and scripted mistakes.

    Args:
        process: The observing process.
        detection_delay: Seconds between a crash and this observer
            suspecting the crashed process.  Must be > 0; instantaneous
            detection would be a stronger oracle than any real ◇S.
        false_suspicions: Scripted temporary wrong suspicions (only those
            whose ``observer`` is this process are armed).
    """

    def __init__(
        self,
        process: SimProcess,
        detection_delay: float = 50e-3,
        false_suspicions: tuple[FalseSuspicion, ...] = (),
    ) -> None:
        super().__init__(process)
        if detection_delay <= 0:
            raise ConfigurationError("detection_delay must be > 0")
        self.detection_delay = detection_delay
        for fs in false_suspicions:
            if fs.observer != process.pid:
                continue
            process.schedule_at(fs.start, self._suspect, fs.target)
            process.schedule_at(fs.end, self._trust, fs.target)

    def observe_crash_of(self, target: SimProcess) -> None:
        """Arrange to suspect ``target`` ``detection_delay`` after it crashes."""
        target.on_crash(partial(self._suspect_later, target.pid))

    def _suspect_later(self, target: ProcessId) -> None:
        self.process.schedule(self.detection_delay, self._suspect, target)


def wire_oracle_detectors(
    processes: dict[ProcessId, SimProcess],
    detection_delay: float = 50e-3,
    false_suspicions: tuple[FalseSuspicion, ...] = (),
) -> dict[ProcessId, OracleFailureDetector]:
    """Create one oracle detector per process, each observing all others."""
    detectors = {
        pid: OracleFailureDetector(proc, detection_delay, false_suspicions)
        for pid, proc in processes.items()
    }
    for pid, detector in detectors.items():
        for other_pid, other_proc in processes.items():
            if other_pid != pid:
                detector.observe_crash_of(other_proc)
    return detectors
