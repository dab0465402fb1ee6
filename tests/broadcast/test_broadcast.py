"""Tests for the three broadcast algorithms (flood RB, sender RB, URB)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.flood import FloodReliableBroadcast
from repro.broadcast.sender import SenderReliableBroadcast
from repro.broadcast.uniform import UniformReliableBroadcast
from repro.checkers.broadcast import BroadcastChecker
from repro.core.identifiers import MessageId
from repro.net.faults import DelayRule
from tests.helpers import Fabric, app_message, make_fabric


def mount(fabric: Fabric, kind: str):
    services = {}
    for pid in fabric.config.processes:
        transport = fabric.transports[pid]
        if kind == "flood":
            services[pid] = FloodReliableBroadcast(transport)
        elif kind == "sender":
            services[pid] = SenderReliableBroadcast(transport, fabric.detectors[pid])
        else:
            services[pid] = UniformReliableBroadcast(transport, fabric.config)
    fabric.services = services
    return services


def delivered_ids(fabric: Fabric, pid: int):
    return [e.message.mid for e in fabric.trace.rdeliveries(pid)]


@pytest.mark.parametrize("kind", ["flood", "sender", "uniform"])
class TestCommonBehaviour:
    def test_all_processes_deliver(self, kind):
        fabric = make_fabric(3)
        services = mount(fabric, kind)
        m = app_message(origin=1)
        services[1].broadcast(m)
        fabric.run()
        for pid in (1, 2, 3):
            assert delivered_ids(fabric, pid) == [m.mid]

    def test_no_duplicate_deliveries(self, kind):
        fabric = make_fabric(4)
        services = mount(fabric, kind)
        for i in range(5):
            services[1 + i % 4].broadcast(app_message(origin=1 + i % 4))
        fabric.run()
        for pid in fabric.config.processes:
            ids = delivered_ids(fabric, pid)
            assert len(ids) == len(set(ids)) == 5

    def test_crashed_process_does_not_broadcast(self, kind):
        fabric = make_fabric(3)
        services = mount(fabric, kind)
        fabric.processes[1].crash()
        services[1].broadcast(app_message(origin=1))
        fabric.run()
        assert fabric.trace.rbroadcasts() == []
        for pid in (2, 3):
            assert delivered_ids(fabric, pid) == []

    def test_checker_passes_on_failure_free_run(self, kind):
        fabric = make_fabric(3)
        services = mount(fabric, kind)
        for pid in (1, 2, 3):
            services[pid].broadcast(app_message(origin=pid))
        fabric.run()
        BroadcastChecker(fabric.trace, fabric.config).check_all(
            uniform=(kind == "uniform")
        )


class TestMessageComplexity:
    """The O(n) / O(n^2) distinction Figures 5-7 are built on."""

    def test_flood_uses_n_squared_frames(self):
        fabric = make_fabric(4)
        services = mount(fabric, "flood")
        services[1].broadcast(app_message(origin=1))
        fabric.run()
        # n(n-1) = 12 data frames for n=4.
        assert fabric.network.total_frames("rb2.data") == 12

    def test_sender_uses_n_frames_in_good_runs(self):
        fabric = make_fabric(4)
        services = mount(fabric, "sender")
        services[1].broadcast(app_message(origin=1))
        fabric.run()
        # n-1 = 3 data frames, nobody relays.
        assert fabric.network.total_frames("rb1.data") == 3

    def test_urb_uses_n_squared_frames(self):
        fabric = make_fabric(4)
        services = mount(fabric, "uniform")
        services[1].broadcast(app_message(origin=1))
        fabric.run()
        assert fabric.network.total_frames("urb.data") == 12


class TestSenderRbFaultPaths:
    def test_relay_on_suspicion_restores_agreement(self):
        """Origin crashes after reaching only p2; p2 relays once the FD
        suspects the origin, so p3 still delivers."""
        fabric = make_fabric(3, detection_delay=20e-3, drop_in_flight=True,
                             faults=(DelayRule(dst=2, delay=1e-3),
                                     DelayRule(delay=50e-3)))
        services = mount(fabric, "sender")
        m = app_message(origin=1)
        services[1].broadcast(m)
        fabric.crash(1, at=5e-3)  # p3's copy (50ms) is lost; p2 has it
        fabric.run(until=1.0)
        assert m.mid in delivered_ids(fabric, 2)
        assert m.mid in delivered_ids(fabric, 3)
        BroadcastChecker(fabric.trace, fabric.config).check_agreement()

    def test_late_copy_relayed_if_origin_already_suspected(self):
        fabric = make_fabric(3, detection_delay=5e-3, drop_in_flight=False,
                             faults=(DelayRule(dst=2, delay=1e-3),
                                     DelayRule(delay=40e-3)))
        services = mount(fabric, "sender")
        m = app_message(origin=1)
        services[1].broadcast(m)
        fabric.crash(1, at=2e-3)
        # p3 receives the in-flight copy at 40ms, long after suspecting
        # p1 — it must relay immediately rather than wait for a change.
        fabric.run(until=1.0)
        assert m.mid in delivered_ids(fabric, 2)

    def test_false_suspicion_costs_duplicates_not_correctness(self):
        from repro.failure.detector import FalseSuspicion
        fs = FalseSuspicion(observer=2, target=1, start=5e-3, end=20e-3)
        fabric = make_fabric(3, false_suspicions=(fs,))
        services = mount(fabric, "sender")
        services[1].broadcast(app_message(origin=1))
        fabric.run(until=1.0)
        BroadcastChecker(fabric.trace, fabric.config).check_all()
        # The false suspicion triggered a (harmless) relay.
        assert fabric.network.total_frames("rb1.data") > 2

    def test_relays_only_suspected_origins_unrelayed_in_hold_order(self):
        """A detector flip relays the unrelayed messages of the origin
        it suspects, oldest first, and never the same message twice."""
        from repro.failure.detector import FalseSuspicion
        fs = (
            FalseSuspicion(observer=3, target=1, start=20e-3, end=30e-3),
            FalseSuspicion(observer=3, target=2, start=25e-3, end=30e-3),
            FalseSuspicion(observer=3, target=1, start=40e-3, end=50e-3),
        )
        fabric = make_fabric(4, false_suspicions=fs)
        services = mount(fabric, "sender")
        relayed = []
        send_all = fabric.transports[3].send_all
        fabric.transports[3].send_all = lambda kind, body, **kw: (
            relayed.append(body.mid), send_all(kind, body=body, **kw)
        )
        # p3 holds, in this order: m1a (p1), m2 (p2), m4 (p4), m1b (p1).
        m1a, m2, m4, m1b = (
            app_message(1), app_message(2), app_message(4), app_message(1)
        )
        for at, message in ((1e-3, m1a), (2e-3, m2), (3e-3, m4), (4e-3, m1b)):
            fabric.engine.schedule_at(
                at, services[message.mid.origin].broadcast, message
            )
        m1c = app_message(1)
        fabric.engine.schedule_at(35e-3, services[1].broadcast, m1c)
        fabric.run(until=1.0)
        # 20 ms: p1's two; 25 ms: p2's one (p1 still suspected, nothing
        # left of it); 40 ms: only what p1 sent since.  p4's: never.
        assert relayed == [m1a.mid, m1b.mid, m2.mid, m1c.mid]
        BroadcastChecker(fabric.trace, fabric.config).check_all()


class TestUrbUniformity:
    def test_no_delivery_without_majority(self):
        """With the origin's frames stuck, nobody reaches a majority of
        copies, so nobody urb-delivers — uniformity preserved trivially."""
        fabric = make_fabric(
            3, drop_in_flight=True, faults=(DelayRule(delay=50e-3),)
        )
        services = mount(fabric, "uniform")
        services[1].broadcast(app_message(origin=1))
        fabric.crash(1, at=1e-3)
        fabric.run(until=0.04)
        assert delivered_ids(fabric, 1) == []

    def test_uniform_agreement_with_crashing_deliverer(self):
        """If any process delivered, all correct processes deliver, even
        when the origin crashes immediately after its burst."""
        fabric = make_fabric(3, latency=1e-3)
        services = mount(fabric, "uniform")
        m = app_message(origin=1)
        services[1].broadcast(m)
        fabric.crash(1, at=2.5e-3)
        fabric.run(until=1.0)
        checker = BroadcastChecker(fabric.trace, fabric.config)
        checker.check_uniform_agreement()

    def test_origin_pays_a_round_trip(self):
        """The origin cannot urb-deliver before witnessing a relay — one
        full RTT, the latency cost of uniformity for the sender."""
        fabric = make_fabric(3, latency=1e-3)
        services = mount(fabric, "uniform")
        services[1].broadcast(app_message(origin=1))
        fabric.run(until=10.0)
        origin_delivery = [e.time for e in fabric.trace.rdeliveries(1)]
        assert origin_delivery and origin_delivery[0] >= 2e-3

    def test_urb_liveness_with_a_dead_majority_complement(self):
        """Self-counting keeps URB live when f processes are already
        dead: n=3 with p2 down still delivers everywhere."""
        fabric = make_fabric(3, latency=1e-3)
        services = mount(fabric, "uniform")
        fabric.processes[2].crash()
        m = app_message(origin=1)
        services[1].broadcast(m)
        fabric.run(until=1.0)
        assert m.mid in delivered_ids(fabric, 1)
        assert m.mid in delivered_ids(fabric, 3)


@given(order=st.permutations([(o, s) for o in (1, 2, 3) for s in (1, 2, 3, 4)]),
       repeats=st.lists(st.integers(0, 11), max_size=6))
@settings(max_examples=40, deadline=None)
def test_delivered_watermark_matches_a_plain_set(order, repeats):
    """Delivery in any per-origin order, with duplicates, keeps the
    ``IdWatermark`` equal to the set of delivered ids: each id delivered
    once, membership and size exact, ``above`` empty once every prefix
    is complete."""
    fabric = make_fabric(3)
    service = mount(fabric, "flood")[1]
    seen = set()
    for i, (origin, seq) in enumerate(order):
        message = app_message(origin=origin, seq=seq)
        assert service._deliver(message) == (message.mid not in seen)
        seen.add(message.mid)
        for j in repeats:
            assert not service._deliver(app_message(*order[min(j, i)]))
        ids = {MessageId(o, s) for o, s in order}
        assert {mid for mid in ids if service.has_delivered(mid)} == seen
        assert len(service._delivered) == len(seen)
    assert service._delivered.through == [0, 4, 4, 4]
    assert not service._delivered.above
