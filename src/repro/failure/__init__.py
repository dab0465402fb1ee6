"""Failure substrate: crash injection and unreliable failure detectors.

The paper's algorithms are built on the eventually-strong failure
detector class ◇S (Chandra & Toueg).  This package provides:

* :class:`~repro.failure.crash.CrashSchedule` — declarative fault
  injection ("crash p2 at t=0.5s"), applied to a running simulation.
* :class:`~repro.failure.detector.OracleFailureDetector` — a detector
  driven directly by the crash schedule with a configurable detection
  delay and optional scripted *false* suspicions; with a finite delay and
  no false suspicions it implements ◇P ⊆ ◇S.
* :class:`~repro.failure.heartbeat.HeartbeatFailureDetector` — a
  message-based detector (periodic heartbeats, adaptive timeout) like the
  ones used in the Neko performance studies the paper builds on; in a
  partially synchronous run it exhibits ◇S behaviour (possibly wrong,
  eventually accurate).

Timed partitions are link faults, not process faults: they are
``PartitionWindow`` rules in ``StackSpec.faults`` (:mod:`repro.net.faults`).
"""

from repro.failure.crash import CrashSchedule
from repro.failure.detector import (
    FailureDetector,
    OracleFailureDetector,
    StaticFailureDetector,
)
from repro.failure.heartbeat import HeartbeatFailureDetector

__all__ = [
    "CrashSchedule",
    "FailureDetector",
    "HeartbeatFailureDetector",
    "OracleFailureDetector",
    "StaticFailureDetector",
]
