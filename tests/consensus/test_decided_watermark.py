"""The decided watermark is exactly the set of decisions.

A consensus service keeps no table of decided values: a decision is
applied once by the layer above and only "has ``k`` been decided?" is
asked again.  The answer is the watermark the decide path keeps anyway
— ``1 .. decided_through`` plus the overtakers in ``decided_above`` —
which a first decide frame sets before the process decides.  Here every
n = 3 registry stack with a consensus layer runs with a full trace,
crash-free and with one crash, and at every checkpoint each process's
``has_decided(k)`` must hold for exactly the instances of its
``DecideEvent``\\ s.  A crafted decide frame that overtakes its
predecessor covers ``decided_above``, which loaded runs never reach
(Algorithm 1 proposes ``k + 1`` only after deciding ``k``).
"""

from __future__ import annotations

import pytest

from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system
from repro.consensus.base import ID_SET_CODEC
from repro.core.events import DecideEvent
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.harness.suite import registry_variants
from repro.metrics.probes import ConsensusProbe
from repro.net.setups import SETUP_1
from tests.helpers import app_message, make_fabric

STACKS = {
    label: stack
    for label, stack in registry_variants(3, network="contention",
                                          params=SETUP_1, seed=3)
    if stack.consensus != "none"
}
CHECKPOINTS = (0.05, 0.1, 0.15, 0.2, 0.6)


def assert_watermark_is_the_decisions(system) -> None:
    decides = system.trace.decides()
    for pid, service in system.consensuses.items():
        mine = {e.instance for e in decides if e.process == pid}
        horizon = max(mine, default=0) + 3
        assert {
            k for k in range(1, horizon) if service.has_decided(k)
        } == mine, f"p{pid}"
    # The probe's count is the union of the watermarks.
    fields = dict(ConsensusProbe(None).finish(system, 0).fields)
    assert fields["instances_decided"] == len({e.instance for e in decides})


def test_every_consensus_stack_is_in_the_registry_matrix():
    assert len(STACKS) == 14


@pytest.mark.parametrize("crash", [False, True], ids=["no-crash", "crash"])
@pytest.mark.parametrize("label", sorted(STACKS))
def test_has_decided_holds_exactly_for_the_decide_events(label, crash):
    stack = STACKS[label]
    crashes = CrashSchedule.none()
    if crash:
        # MR tolerates no crash at n = 3: its instances stall, and the
        # watermark must still name only what was decided.
        stack = StackSpec(**{**stack.__dict__, "enforce_resilience": False})
        crashes = CrashSchedule.single(3, 0.1)
    system = build_system(stack, crashes)
    SymmetricWorkload(
        system, throughput=600.0, payload_size=64, duration=0.2,
        arrivals="poisson",
    ).install()
    for until in CHECKPOINTS:
        system.run(until=until)
        assert_watermark_is_the_decisions(system)
    assert len(system.trace.decides()) > 50
    assert system.processes[3].crashed == crash


def test_a_decide_frame_that_overtakes_its_predecessor():
    fabric = make_fabric(3)
    services = {
        pid: CTIndirectConsensus(
            fabric.transports[pid], fabric.config, fabric.detectors[pid],
            ID_SET_CODEC,
        )
        for pid in fabric.config.processes
    }
    first, second = (frozenset({app_message(1).mid}) for _ in range(2))

    def decide_frame(k, value):
        """(process, instance) of every decision so far, in time order."""
        # From p1 to p3 through the network: p3 forwards it to p1, p2.
        fabric.transports[1].send(3, "cti.decide", body=(k, value), size=0)
        fabric.run()
        return [(e.process, e.instance) for e in fabric.trace.events
                if type(e) is DecideEvent]

    assert sorted(decide_frame(2, second)) == [(1, 2), (2, 2), (3, 2)]
    for service in services.values():
        assert (service.decided_through, service.decided_above) == (0, {2})
        assert service.has_decided(2) and not service.has_decided(1)
        assert not service.has_decided(3)
    # A repeat decides nothing again.
    assert len(decide_frame(2, second)) == 3
    assert sorted(decide_frame(1, first)[3:]) == [(1, 1), (2, 1), (3, 1)]
    for pid, service in services.items():
        assert (service.decided_through, service.decided_above) == (2, set())
        assert [e.instance for e in fabric.trace.events
                if type(e) is DecideEvent and e.process == pid] == [2, 1]
        assert not service.has_decided(3)
