"""Tests for the stack builder's wiring decisions."""

import pytest

from repro import StackSpec, build_system
from repro.broadcast.flood import FloodReliableBroadcast
from repro.broadcast.sender import SenderReliableBroadcast
from repro.broadcast.uniform import UniformReliableBroadcast
from repro.consensus.ct_indirect import CTIndirectConsensus
from repro.consensus.mr_indirect import MRIndirectConsensus
from repro.core.exceptions import ConfigurationError
from repro.failure.detector import OracleFailureDetector
from repro.failure.heartbeat import HeartbeatFailureDetector
from repro.net.models import ConstantLatencyNetwork, ContentionNetwork


class TestBuilderWiring:
    def test_rb_choice_maps_to_class(self):
        flood = build_system(StackSpec(n=3, rb="flood"))
        sender = build_system(StackSpec(n=3, rb="sender"))
        assert isinstance(flood.broadcasts[1], FloodReliableBroadcast)
        assert isinstance(sender.broadcasts[1], SenderReliableBroadcast)

    def test_urb_variant_ignores_rb_choice(self):
        system = build_system(
            StackSpec(n=3, abcast="urb-ids", consensus="ct", rb="sender")
        )
        assert isinstance(system.broadcasts[1], UniformReliableBroadcast)

    def test_consensus_classes(self):
        ct = build_system(StackSpec(n=3, consensus="ct-indirect"))
        mr = build_system(
            StackSpec(n=4, abcast="indirect", consensus="mr-indirect")
        )
        assert isinstance(ct.consensuses[1], CTIndirectConsensus)
        assert isinstance(mr.consensuses[1], MRIndirectConsensus)

    def test_network_choice(self):
        contention = build_system(StackSpec(n=3, network="contention"))
        constant = build_system(StackSpec(n=3, network="constant"))
        assert isinstance(contention.network, ContentionNetwork)
        assert isinstance(constant.network, ConstantLatencyNetwork)

    def test_fd_choice(self):
        oracle = build_system(StackSpec(n=3, fd="oracle"))
        heartbeat = build_system(StackSpec(n=3, fd="heartbeat"))
        assert isinstance(oracle.detectors[1], OracleFailureDetector)
        assert isinstance(heartbeat.detectors[1], HeartbeatFailureDetector)

    def test_default_f_is_per_algorithm_maximum(self):
        assert build_system(StackSpec(n=5, consensus="ct-indirect")).config.f == 2
        assert (
            build_system(
                StackSpec(n=5, abcast="indirect", consensus="mr-indirect")
            ).config.f
            == 1
        )

    def test_explicit_f_is_honoured(self):
        system = build_system(StackSpec(n=5, f=1))
        assert system.config.f == 1

    def test_rcv_charge_wired_only_on_contention(self):
        contention = build_system(StackSpec(n=3, network="contention"))
        constant = build_system(StackSpec(n=3, network="constant"))
        assert contention.consensuses[1].charge_rcv is not None
        assert constant.consensuses[1].charge_rcv is None

    def test_missing_policy_reaches_consensus(self):
        system = build_system(StackSpec(n=3, ct_missing_policy="wait"))
        assert system.consensuses[1].missing_policy == "wait"

    def test_bad_missing_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            build_system(StackSpec(n=3, ct_missing_policy="retry"))

    def test_every_process_gets_its_own_stack(self):
        system = build_system(StackSpec(n=4))
        assert len(system.abcasts) == 4
        assert len({id(a) for a in system.abcasts.values()}) == 4
        for pid, abcast in system.abcasts.items():
            assert abcast.pid == pid

    def test_correct_processes_tracks_crashes(self):
        from repro import CrashSchedule
        system = build_system(StackSpec(n=3), CrashSchedule.single(2, 0.1))
        assert system.correct_processes() == {1, 2, 3}
        system.run(until=0.2)
        assert system.correct_processes() == {1, 3}

    def test_custom_trace_observer_is_used(self):
        from repro.sim.trace import CountingTrace
        observer = CountingTrace()
        system = build_system(StackSpec(n=3, network="constant"),
                              trace=observer)
        assert system.trace is observer
        for process in system.processes.values():
            assert process.trace is observer


class TestConstantNetworkKnobs:
    """``per_byte``/``jitter`` of the constant network, via StackSpec."""

    def test_per_byte_and_jitter_reach_the_network(self):
        system = build_system(StackSpec(
            n=3, network="constant",
            constant_latency=1e-3, constant_per_byte=1e-6,
            constant_jitter=2e-4,
        ))
        assert system.network.base == 1e-3
        assert system.network.per_byte == 1e-6
        assert system.network.jitter == 2e-4
        assert system.network.rng is system.rngs.stream("net.jitter")

    def test_defaults_stay_deterministic(self):
        system = build_system(StackSpec(n=3, network="constant"))
        assert system.network.per_byte == 0.0
        assert system.network.jitter == 0.0
        assert system.network.rng is None

    def test_jitter_is_reproducible_per_seed(self):
        def delivery_times(seed):
            from repro.core.message import make_payload
            system = build_system(StackSpec(
                n=3, network="constant", constant_jitter=5e-4, seed=seed,
            ))
            system.abcasts[1].abroadcast(make_payload(10, "m"))
            system.run_until_delivered(count=1, timeout=1.0)
            return [
                e.time for e in system.trace.adeliveries()
            ]
        assert delivery_times(3) == delivery_times(3)
        assert delivery_times(3) != delivery_times(4)

    def test_negative_knobs_rejected(self):
        for field in ("constant_latency", "constant_per_byte",
                      "constant_jitter"):
            with pytest.raises(ConfigurationError):
                StackSpec(n=3, network="constant", **{field: -1e-6})
