"""Interpreted work of the protocol layers per decided consensus instance.

The protocol stack — Algorithm 1 (``repro.abcast``), the consensus
algorithms (``repro.consensus``), the rb layer (``repro.broadcast``) and
the shared records (``repro.core``) — runs a fixed number of Python
calls per decided instance on a fixed drive.  This module pins those
calls as exact counts (``sys.setprofile``, so they repeat on any
machine) for CT-indirect, MR-indirect and faulty-ids/ct at n = 3 and 5.

The drive: every process abroadcasts one 64-byte message every 4 ms
for 40 ms on the ``SETUP_1`` contention network with oracle failure
detectors and no crash, and the run goes on until everything is
delivered.  Construction is outside the count; only the run is counted.

``PARENT_CALLS`` are the counts of the same drive at commit 6b97489,
before the protocol constants became plain attributes (every ``pid``, coordinator, quorum
and ``engine.now`` read was a property or method call, an id set's wire
size summed one call per id, every duplicate decide frame re-entered
``_decide_local``, and every trace event went through the frozen
dataclass keyword ``__init__``).
"""

from __future__ import annotations

import os

import pytest

import repro
from repro import SETUP_1, StackSpec
from repro.core.message import make_payload
from tests.helpers import count_calls

LAYERS = ("consensus", "abcast", "broadcast", "core")
_DIRS = tuple(
    (os.sep + os.path.join("repro", layer) + os.sep, layer) for layer in LAYERS
)

ROUNDS = 10
PERIOD = 4e-3
PAYLOAD = 64
UNTIL = 1.0

#: (abcast, consensus, n) -> protocol-layer calls the drive made before
#: the constants became attributes.
PARENT_CALLS = {
    ("indirect", "ct-indirect", 3): 6037,
    ("indirect", "ct-indirect", 5): 8856,
    ("indirect", "mr-indirect", 3): 5751,
    ("indirect", "mr-indirect", 5): 9001,
    ("faulty-ids", "ct", 3): 6203,
    ("faulty-ids", "ct", 5): 8782,
}
#: ...and now: 203 calls per decided instance for CT-indirect at n = 3
#: (402 before), 482 at n = 5 (984 before).
CALLS = {
    ("indirect", "ct-indirect", 3): 3042,
    ("indirect", "ct-indirect", 5): 4336,
    ("indirect", "mr-indirect", 3): 2922,
    ("indirect", "mr-indirect", 5): 4355,
    ("faulty-ids", "ct", 3): 3074,
    ("faulty-ids", "ct", 5): 4188,
}
#: (abcast, consensus, n) -> instances decided, the same at every
#: process and at the parent: the saving is interpreted work, never
#: protocol behaviour.
INSTANCES = {
    ("indirect", "ct-indirect", 3): 15,
    ("indirect", "ct-indirect", 5): 9,
    ("indirect", "mr-indirect", 3): 15,
    ("indirect", "mr-indirect", 5): 8,
    ("faulty-ids", "ct", 3): 17,
    ("faulty-ids", "ct", 5): 9,
}


def _layer(code) -> str | None:
    filename = code.co_filename
    for directory, layer in _DIRS:
        if directory in filename:
            return layer
    return None


def drive(abcast: str, consensus: str, n: int) -> dict:
    system = repro.build_system(
        StackSpec(
            n=n, abcast=abcast, consensus=consensus, rb="sender",
            network="contention", params=SETUP_1, seed=0,
        )
    )
    for i in range(ROUNDS):
        for service in system.abcasts.values():
            system.engine.schedule(
                i * PERIOD, service.abroadcast, make_payload(PAYLOAD)
            )
    _, calls = count_calls(lambda: system.engine.run(until=UNTIL), _layer)
    decided = {
        sum(1 for e in system.trace.decides() if e.process == pid)
        for pid in system.consensuses
    }
    delivered = {a.delivered_count() for a in system.abcasts.values()}
    return {
        "calls": sum(calls.values()),
        "by_layer": dict(calls),
        "decided": decided,
        "delivered": delivered,
    }


@pytest.mark.parametrize("abcast,consensus,n", list(CALLS))
def test_protocol_calls_per_decided_instance(abcast, consensus, n):
    case = (abcast, consensus, n)
    run = drive(*case)
    assert run["delivered"] == {ROUNDS * n}
    assert run["decided"] == {INSTANCES[case]}
    assert run["calls"] == CALLS[case], run["by_layer"]
    # Each decided instance costs at most 51 % of the parent's calls.
    assert CALLS[case] * 100 <= PARENT_CALLS[case] * 51
