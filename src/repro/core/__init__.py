"""Core abstractions shared by every subsystem of the reproduction.

This package holds the vocabulary of the paper: processes and message
identifiers (:mod:`repro.core.identifiers`), application messages
(:mod:`repro.core.message`), the store of received messages behind the
``rcv`` predicate of indirect consensus (:mod:`repro.core.rcv`), the system
configuration (:mod:`repro.core.config`), and the protocol-level event
records that checkers consume (:mod:`repro.core.events`).

Nothing in :mod:`repro.core` depends on the simulation engine; the types
here are plain values that would be equally at home in a real deployment.
"""

from repro.core.config import SystemConfig
from repro.core.events import (
    ABroadcastEvent,
    ADeliverEvent,
    CrashEvent,
    DecideEvent,
    ProposeEvent,
    ProtocolEvent,
    RBroadcastEvent,
    RDeliverEvent,
)
from repro.core.exceptions import (
    ConfigurationError,
    ProtocolViolationError,
    ReproError,
    ResilienceExceededError,
)
from repro.core.identifiers import MessageId, ProcessId
from repro.core.message import AppMessage, make_payload
from repro.core.rcv import ReceivedStore, RcvFunction

__all__ = [
    "ABroadcastEvent",
    "ADeliverEvent",
    "AppMessage",
    "ConfigurationError",
    "CrashEvent",
    "DecideEvent",
    "MessageId",
    "ProcessId",
    "ProposeEvent",
    "ProtocolEvent",
    "ProtocolViolationError",
    "RBroadcastEvent",
    "RDeliverEvent",
    "RcvFunction",
    "ReceivedStore",
    "ReproError",
    "ResilienceExceededError",
    "SystemConfig",
    "make_payload",
]
