"""Tests for multi-segment topologies on both network models."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.net.frame import FRAME_HEADER_SIZE, Frame
from repro.net.models import ConstantLatencyNetwork, ContentionNetwork, NetworkParams
from repro.net.topology import Topology
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.trace import Trace

PARAMS = NetworkParams(
    send_overhead=10e-6,
    recv_overhead=10e-6,
    cpu_per_byte=0.0,
    wire_overhead=5e-6,
    wire_per_byte=0.1e-6,
)


def make_net(n=4, kind="contention", topology=None, **kwargs):
    engine = Engine()
    trace = Trace()
    if kind == "constant":
        network = ConstantLatencyNetwork(
            engine, base=1e-3, topology=topology, **kwargs
        )
    else:
        network = ContentionNetwork(
            engine, PARAMS, topology=topology, **kwargs
        )
    processes = {}
    inboxes = {pid: [] for pid in range(1, n + 1)}
    for pid in range(1, n + 1):
        process = SimProcess(pid, engine, trace)
        processes[pid] = process
        network.attach(process, {"t.data": inboxes[pid].append})
    return engine, network, processes, inboxes


def frame(src, dst, size=100):
    return Frame(src=src, dst=dst, kind="t.data", body=None, size=size)


class TestTopologyValidation:
    def test_duplicate_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology.split((1, 2), (2, 3))

    def test_empty_segment_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology.split((1,), ())

    def test_negative_router_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology.split((1,), (2,), router_latency=-1e-6)

    def test_validate_for_needs_full_coverage(self):
        Topology.split((1, 2), (3,)).validate_for(3)
        with pytest.raises(ConfigurationError, match="unplaced"):
            Topology.split((1, 2)).validate_for(3)
        with pytest.raises(ConfigurationError, match="unknown"):
            Topology.split((1, 2), (3, 9)).validate_for(3)

    def test_single_segment_places_everyone(self):
        topo = Topology.single()
        assert topo.segment_of(1) == topo.segment_of(99) == 0
        assert not topo.crosses(1, 99)
        topo.validate_for(50)

    def test_attach_rejects_unplaced_process(self):
        with pytest.raises(ConfigurationError):
            make_net(n=3, topology=Topology.split((1, 2)))


class TestConstantModel:
    def test_cross_segment_pays_router_latency(self):
        engine, network, _, inboxes = make_net(
            n=4, kind="constant",
            topology=Topology.split((1, 2), (3, 4), router_latency=2e-3),
        )
        network.send(frame(1, 2))
        engine.run()
        assert engine.now == pytest.approx(1e-3)  # intra-segment
        network.send(frame(1, 3))
        engine.run()
        assert engine.now == pytest.approx(1e-3 + 1e-3 + 2e-3)


class TestContentionModel:
    def test_single_segment_keeps_one_medium_named_as_before(self):
        _, network, _, _ = make_net(topology=None)
        assert len(network.media) == 1
        assert network.medium.name == "net.medium"

    def test_segments_get_independent_media(self):
        engine, network, _, inboxes = make_net(
            topology=Topology.split((1, 2), (3, 4))
        )
        assert len(network.media) == 2
        # Intra-segment transfers on different segments do not contend:
        # both complete in one wire time, not two.
        network.send(frame(1, 2, size=1000))
        network.send(frame(3, 4, size=1000))
        engine.run()
        wire = PARAMS.wire_overhead + PARAMS.wire_per_byte * (
            1000 + FRAME_HEADER_SIZE
        )
        assert network.media[0].busy_time == pytest.approx(wire)
        assert network.media[1].busy_time == pytest.approx(wire)
        expected = PARAMS.send_overhead + wire + PARAMS.recv_overhead
        assert engine.now == pytest.approx(expected)

    def test_cross_segment_charges_both_media_and_the_router(self):
        engine, network, _, inboxes = make_net(
            topology=Topology.split((1, 2), (3, 4), router_latency=1e-3)
        )
        f = frame(1, 3, size=1000)
        network.send(f)
        engine.run()
        wire = PARAMS.wire_overhead + PARAMS.wire_per_byte * f.wire_size()
        assert network.media[0].busy_time == pytest.approx(wire)
        assert network.media[1].busy_time == pytest.approx(wire)
        expected = (
            PARAMS.send_overhead + wire + 1e-3 + wire + PARAMS.recv_overhead
        )
        assert engine.now == pytest.approx(expected)
        assert len(inboxes[3]) == 1

    def test_zero_latency_router_still_store_and_forwards(self):
        engine, network, _, inboxes = make_net(
            topology=Topology.split((1, 2), (3, 4), router_latency=0.0)
        )
        network.send(frame(1, 3, size=1000))
        engine.run()
        assert len(inboxes[3]) == 1
        assert network.media[1].jobs_served == 1

    def test_remote_segment_traffic_does_not_contend_at_home(self):
        """A burst between p3/p4 must not delay p1->p2 frames: the whole
        point of segmenting the collision domain."""
        engine, network, _, inboxes = make_net(
            topology=Topology.split((1, 2), (3, 4))
        )
        for _ in range(20):
            network.send(frame(3, 4, size=1400))
        network.send(frame(1, 2, size=100))
        engine.run()
        wire = PARAMS.wire_overhead + PARAMS.wire_per_byte * (
            100 + FRAME_HEADER_SIZE
        )
        # p1's frame saw an idle medium; same time as an unloaded net.
        assert inboxes[2][0] is not None
        assert network.media[0].busy_time == pytest.approx(wire)


class TestBuilderIntegration:
    def test_stackspec_validates_topology_coverage(self):
        from repro.stack.builder import StackSpec

        with pytest.raises(ConfigurationError):
            StackSpec(n=3, topology=Topology.split((1, 2)))

    def test_split_system_still_delivers(self):
        from repro import StackSpec, build_system, check_abcast, make_payload

        spec = StackSpec(
            n=3,
            abcast="indirect",
            consensus="ct-indirect",
            topology=Topology.split((1, 2), (3,), router_latency=1e-3),
        )
        system = build_system(spec)
        system.abcasts[1].abroadcast(make_payload(100, "m"))
        assert system.run_until_delivered(count=1, timeout=2.0)
        check_abcast(system.trace, system.config)

    def test_router_latency_shows_in_end_to_end_latency(self):
        from repro import StackSpec, build_system, make_payload
        from repro.metrics.latency import measure_latency

        def mean_latency(topology):
            spec = StackSpec(
                n=3, abcast="indirect", consensus="ct-indirect",
                topology=topology,
            )
            system = build_system(spec)
            system.abcasts[1].abroadcast(make_payload(100, "m"))
            assert system.run_until_delivered(count=1, timeout=2.0)
            return measure_latency(
                system.trace, system.config, warmup=0.0, cutoff=1.0
            ).mean_ms

        lan = mean_latency(None)
        wan = mean_latency(Topology.split((1, 2), (3,), router_latency=5e-3))
        assert wan > lan
