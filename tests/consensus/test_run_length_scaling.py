"""The cost of a protocol step does not depend on how long the run has been going.

Algorithm 1 runs consensus executions one after another, so only a
handful of instances are undecided at any instant.  A detector flip or
a new r-delivery may only visit those — a decision retires its
instance, leaving only its round entries in the service's round log.
The guard counts instance visits exactly (a counting patch on the
instance hooks, no timing) on a short and a four times longer run; the
unit tests pin the bookkeeping of the instance table and the parked
index that makes it hold.
"""

import pytest

import repro
from repro import SETUP_1, CrashSchedule, StackSpec
from repro.consensus.base import ConsensusService
from repro.consensus.chandra_toueg import CtInstance
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.net.frame import Frame
from repro.stack.layers import WORKLOADS
from tests.consensus.test_round_mechanics import give, ids, mount
from tests.helpers import app_message, make_fabric

#: Undecided instances a process can have at once: the one it proposed
#: in, plus the next ones faster peers already sent it frames for.
LIVE_BOUND = 3


class VisitCounter:
    """Counts, per service call, the instances the call visited."""

    def __init__(self, monkeypatch) -> None:
        self.visits = {"rcv": 0, "detector": 0}
        self.calls = {"rcv": 0, "detector": 0}
        self.max_per_call = {"rcv": 0, "detector": 0}
        self._patch(
            monkeypatch, "rcv", CtInstance, "on_rcv_update",
            ConsensusService, "notify_rcv_update",
        )
        self._patch(
            monkeypatch, "detector", CtInstance, "on_detector_change",
            ConsensusService, "_on_detector_change",
        )

    def _patch(self, monkeypatch, key, inst_cls, hook, svc_cls, walk) -> None:
        inner_hook = getattr(inst_cls, hook)
        inner_walk = getattr(svc_cls, walk)

        def counted_hook(instance):
            self.visits[key] += 1
            inner_hook(instance)

        def counted_walk(service):
            before = self.visits[key]
            inner_walk(service)
            self.calls[key] += 1
            self.max_per_call[key] = max(
                self.max_per_call[key], self.visits[key] - before
            )

        monkeypatch.setattr(inst_cls, hook, counted_hook)
        monkeypatch.setattr(svc_cls, walk, counted_walk)


def loaded_run(monkeypatch, duration: float, policy: str = "nack"):
    """n=3 ct-indirect at 400 msg/s, heartbeat FD, p1 crashing half way."""
    with monkeypatch.context() as patch:
        counter = VisitCounter(patch)
        system = repro.build_system(
            StackSpec(
                n=3, abcast="indirect", consensus="ct-indirect", rb="sender",
                fd="heartbeat", heartbeat_interval=20e-3,
                heartbeat_timeout=100e-3, network="contention",
                params=SETUP_1, seed=0, ct_missing_policy=policy,
            ),
            CrashSchedule.single(1, duration / 2),
        )
        WORKLOADS.get("symmetric").factory(
            system, throughput=400.0, payload_size=100, duration=duration,
            arrivals="poisson",
        ).install()
        system.engine.run(until=duration + 1.0)
    return counter, system


class TestVisitsDoNotGrowWithRunLength:
    def test_nack_policy_visits_nothing_on_rdelivery(self, monkeypatch):
        short, _ = loaded_run(monkeypatch, 1.0)
        long, system = loaded_run(monkeypatch, 4.0)
        # The long run really is longer: more r-deliveries, more
        # detector flips, several times the instances.
        assert long.calls["rcv"] > 3 * short.calls["rcv"] > 0
        assert long.calls["detector"] > short.calls["detector"] > 0
        assert len(system.consensuses[2].decided) > 500
        # Nothing ever parks on rcv under nack-on-missing: an
        # r-delivery visits no instance, however long the run.
        assert short.visits["rcv"] == 0
        assert long.visits["rcv"] == 0
        # A detector flip visits the live instances only.
        assert 0 < short.max_per_call["detector"] <= LIVE_BOUND
        assert 0 < long.max_per_call["detector"] <= LIVE_BOUND

    def test_wait_policy_visits_only_the_parked_instances(self, monkeypatch):
        short, _ = loaded_run(monkeypatch, 1.0, policy="wait")
        long, _ = loaded_run(monkeypatch, 4.0, policy="wait")
        # Phase 3 does park on rcv here, so r-deliveries visit — but
        # never more than the live instances, in either run.
        assert 0 < short.visits["rcv"] < short.calls["rcv"]
        assert 0 < long.visits["rcv"] < long.calls["rcv"]
        assert 0 < short.max_per_call["rcv"] <= LIVE_BOUND
        assert 0 < long.max_per_call["rcv"] <= LIVE_BOUND
        assert long.max_per_call["detector"] <= LIVE_BOUND

    def test_quiescent_survivors_have_no_live_instance(self, monkeypatch):
        _, system = loaded_run(monkeypatch, 1.0)
        for pid in (2, 3):
            service = system.consensuses[pid]
            assert service._instances == {} and service._parked == set()
            assert len(service.round_log) == len(service.decided) > 100
        # The crashed process keeps what it had not decided; nothing
        # walks it any more.
        assert len(system.consensuses[1]._instances) <= LIVE_BOUND


# ----------------------------------------------------------------------
# Index bookkeeping on a bare fabric
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "cls,n,f", [(CTIndirectConsensus, 3, 1), (MRIndirectConsensus, 4, 1)]
)
def test_live_index_is_empty_at_quiescence(cls, n, f):
    fabric = make_fabric(n, f=f)
    services, stores, _ = mount(fabric, cls)
    for k in (1, 2, 3):
        message = app_message(1)
        for pid in fabric.config.processes:
            give(fabric, stores, pid, message)
            services[pid].propose(k, ids(message), stores[pid].rcv)
        assert all(k in s._instances for s in services.values())
    fabric.run()
    for service in services.values():
        assert sorted(service.decided) == [1, 2, 3]
        # Decided instances are retired; only their rounds are logged.
        assert sorted(service.round_log.instances) == [1, 2, 3]
        assert service._instances == {} and service._parked == set()


def test_decide_frame_for_an_instance_never_created_locally():
    fabric = make_fabric(3)
    services, stores, _ = mount(fabric, CTIndirectConsensus)
    message = app_message(1)
    value = ids(message)
    services[3]._on_decide_frame(
        Frame(src=1, dst=3, kind="cti.decide", body=(7, value), size=0)
    )
    assert services[3].decided == {7: value}
    assert services[3]._instances == {} and len(services[3].round_log) == 0
    # Neither a late local propose nor the instance's late round frames
    # resurrect it.
    give(fabric, stores, 3, message)
    services[3].propose(7, value, stores[3].rcv)
    services[3]._on_prop(
        Frame(src=2, dst=3, kind="cti.prop", body=(7, 1, value), size=0)
    )
    assert services[3]._instances == {} and len(services[3].round_log) == 0
    services[3]._on_detector_change()
    services[3].notify_rcv_update()


def test_crashed_process_is_not_walked_and_does_not_block_the_others():
    fabric = make_fabric(3, detection_delay=5e-3)
    services, stores, _ = mount(fabric, CTIndirectConsensus)
    message = app_message(1)
    for pid in fabric.config.processes:
        give(fabric, stores, pid, message)
        services[pid].propose(1, ids(message), stores[pid].rcv)
    fabric.processes[2].crash()  # the round-1 coordinator, before any frame
    fabric.run()
    assert list(services[2]._instances) == [1] and not services[2].decided
    services[2]._on_detector_change()  # crashed: returns without visiting
    services[2].notify_rcv_update()
    assert len(services[2]._instances[1].round_entries) == 1
    for pid in (1, 3):
        assert services[pid].decided == {1: ids(message)}
        assert services[pid]._instances == {}


def test_wait_policy_wakes_a_parked_phase3_with_the_same_rcv_lookups():
    fabric = make_fabric(3)
    services, stores, _ = mount(
        fabric, CTIndirectConsensus, missing_policy="wait"
    )
    # Instances 1-3 decide first, so the service has seen more than the
    # parked instance: only instance 4 may be charged for below.
    for k in (1, 2, 3):
        done = app_message(1)
        for pid in fabric.config.processes:
            give(fabric, stores, pid, done)
            services[pid].propose(k, ids(done), stores[pid].rcv)
    fabric.run()
    assert all(sorted(s.decided) == [1, 2, 3] for s in services.values())

    # p1 crashes, so round 1 of instance 4 needs the acks of both
    # survivors: coordinator p2 proposes {a, b}, p3 lacks a and stalls.
    fabric.processes[1].crash()
    coordinator, waiter = 2, 3
    assert fabric.config.coordinator(1) == coordinator
    lookups = []  # identifier probes rcv charges the waiter for
    services[waiter].charge_rcv = lookups.append
    a, b = app_message(coordinator), app_message(waiter)
    for pid in (coordinator, waiter):
        give(fabric, stores, pid, b)
    give(fabric, stores, coordinator, a)
    services[coordinator].propose(4, ids(a, b), stores[coordinator].rcv)
    services[waiter].propose(4, ids(b), stores[waiter].rcv)
    fabric.run(until=20.0)
    parked = services[waiter]
    assert not services[coordinator].has_decided(4)
    assert parked._parked == {4} and list(parked._instances) == [4]
    # rcv({a, b}) was refused twice: when the proposal arrived, and when
    # the detector flipped on p1 (a flip re-runs Phase 3 as well).
    assert lookups == [2, 2]

    parked.notify_rcv_update()  # nothing new arrived: probes again, stays
    assert parked._parked == {4} and lookups == [2, 2, 2]

    give(fabric, stores, waiter, a)
    parked.notify_rcv_update()  # msgs(v) complete: Phase 3 passes
    assert parked._parked == set() and lookups == [2, 2, 2, 2]
    assert parked._instances[4].estimate == ids(a, b)
    parked.notify_rcv_update()  # nothing parked: no further probe
    assert lookups == [2, 2, 2, 2]

    fabric.run(until=30.0)
    for pid in (coordinator, waiter):
        assert services[pid].decided[4] == ids(a, b)
        assert services[pid]._instances == {}
