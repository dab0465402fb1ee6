"""Tests for the network models: delays, contention, crash semantics."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.net.faults import DelayRule
from repro.net.frame import FRAME_HEADER_SIZE, Frame
from repro.net.models import ConstantLatencyNetwork, ContentionNetwork, NetworkParams
from repro.sim.engine import Engine, EventHandle
from repro.sim.process import SimProcess
from repro.sim.trace import Trace

PARAMS = NetworkParams(
    send_overhead=10e-6,
    recv_overhead=10e-6,
    cpu_per_byte=0.0,
    wire_overhead=5e-6,
    wire_per_byte=0.1e-6,
    rcv_lookup_cost=1e-6,
)


def make_net(n=2, kind="constant", **kwargs):
    engine = Engine()
    trace = Trace()
    if kind == "constant":
        network = ConstantLatencyNetwork(engine, base=1e-3, **kwargs)
    else:
        network = ContentionNetwork(engine, PARAMS, **kwargs)
    processes = {}
    inboxes = {pid: [] for pid in range(1, n + 1)}
    for pid in range(1, n + 1):
        process = SimProcess(pid, engine, trace)
        processes[pid] = process
        append = inboxes[pid].append
        network.attach(process, {"test.data": append, "test.ctl": append})
    return engine, network, processes, inboxes


def frame(src=1, dst=2, size=100, kind="test.data", body="x"):
    return Frame(src=src, dst=dst, kind=kind, body=body, size=size)


class TestParamsValidation:
    def test_rejects_negative_constants(self):
        with pytest.raises(ConfigurationError):
            NetworkParams(-1e-6, 0, 0, 0, 0)

    def test_constant_network_rejects_negative_base(self):
        with pytest.raises(ConfigurationError):
            ConstantLatencyNetwork(Engine(), base=-1.0)

    def test_jitter_requires_rng(self):
        with pytest.raises(ConfigurationError):
            ConstantLatencyNetwork(Engine(), jitter=1e-3)


class TestConstantLatency:
    def test_delivers_after_base_delay(self):
        engine, network, _, inboxes = make_net()
        network.send(frame())
        engine.run()
        assert len(inboxes[2]) == 1
        assert engine.now == pytest.approx(1e-3)

    def test_per_byte_component(self):
        engine, network, _, inboxes = make_net()
        network.per_byte = 1e-6
        f = frame(size=1000)
        network.send(f)
        engine.run()
        assert engine.now == pytest.approx(1e-3 + 1e-6 * f.wire_size())

    def test_delay_rule_overrides(self):
        engine, network, _, inboxes = make_net(
            faults=(DelayRule(control=False, delay=5e-3),)
        )
        network.send(frame())
        network.send(frame(kind="test.ctl"))
        engine.run(until=2e-3)
        assert len(inboxes[2]) == 1  # control frame took the 1ms default
        engine.run(until=10e-3)
        assert len(inboxes[2]) == 2

    def test_counters(self):
        engine, network, _, _ = make_net()
        f = frame(size=50)
        network.send(f)
        network.send(frame(size=70, kind="test.ctl"))
        assert network.frames_sent == {"test.data": 1, "test.ctl": 1}
        assert network.bytes_sent["test.data"] == 50 + FRAME_HEADER_SIZE
        assert network.total_frames("test.") == 2

    def test_unknown_endpoints_rejected(self):
        _, network, _, _ = make_net()
        with pytest.raises(ConfigurationError):
            network.send(frame(src=9))
        with pytest.raises(ConfigurationError):
            network.send(frame(dst=9))


class TestCrashSemantics:
    def test_crashed_sender_sends_nothing(self):
        engine, network, processes, inboxes = make_net()
        processes[1].crash()
        network.send(frame())
        engine.run()
        assert inboxes[2] == []
        assert network.frames_dropped == 1

    def test_crashed_destination_drops_frame(self):
        engine, network, processes, inboxes = make_net()
        network.send(frame())
        engine.schedule(0.5e-3, processes[2].crash)
        engine.run()
        assert inboxes[2] == []

    def test_in_flight_survives_sender_crash_by_default(self):
        engine, network, processes, inboxes = make_net()
        network.send(frame())
        engine.schedule(0.5e-3, processes[1].crash)
        engine.run()
        assert len(inboxes[2]) == 1

    def test_in_flight_lost_with_drop_policy(self):
        """The Section 2.2 scenario needs in-flight data of a crashed
        sender to be lost (dead socket buffers)."""
        engine, network, processes, inboxes = make_net(
            drop_in_flight_of_crashed_sender=True
        )
        network.send(frame())
        engine.schedule(0.5e-3, processes[1].crash)
        engine.run()
        assert inboxes[2] == []

    def test_in_flight_tracking_forgets_delivered_frames(self):
        """Regression: every frame's handle used to stay in the
        sender's in-flight list until that sender crashed — 52 297 of
        them after this 5 s, 400 msg/s run, with nothing pending."""
        from repro import CrashSchedule, StackSpec, build_system
        from repro.stack.layers import WORKLOADS

        system = build_system(
            StackSpec(
                n=3, abcast="indirect", consensus="ct-indirect",
                network="constant", drop_in_flight_on_crash=True,
            ),
            CrashSchedule.none(),
        )
        WORKLOADS.get("symmetric").factory(
            system, throughput=400.0, payload_size=100, duration=5.0
        ).install()
        system.engine.run(until=6.0)
        assert system.engine.pending() == 0
        retained = sum(len(v) for v in system.network._in_flight.values())
        # Pruned whenever a list doubles: bounded by twice the frames in
        # flight at the last prune (or the 64-entry floor), never by the
        # run's total.
        assert retained <= 3 * 64

    def test_pruned_in_flight_tracking_still_drops_on_crash(self):
        engine, network, processes, inboxes = make_net(
            drop_in_flight_of_crashed_sender=True
        )
        for i in range(200):
            engine.schedule(i * 1e-3, network.send, frame())
        engine.schedule(199.5e-3, processes[1].crash)
        engine.run()
        assert len(network._in_flight[1]) == 0
        assert len(inboxes[2]) == 199  # the last frame died in flight
        assert network.frames_dropped == 1


class TestContention:
    def test_pipeline_time_includes_all_stages(self):
        engine, network, _, inboxes = make_net(kind="contention")
        f = frame(size=100)
        network.send(f)
        engine.run()
        expected = (
            PARAMS.send_overhead
            + PARAMS.wire_overhead
            + PARAMS.wire_per_byte * f.wire_size()
            + PARAMS.recv_overhead
        )
        assert engine.now == pytest.approx(expected)

    def test_medium_serialises_concurrent_senders(self):
        engine, network, _, inboxes = make_net(n=3, kind="contention")
        network.send(frame(src=1, dst=3, size=1000))
        network.send(frame(src=2, dst=3, size=1000))
        engine.run()
        wire_each = PARAMS.wire_overhead + PARAMS.wire_per_byte * (
            1000 + FRAME_HEADER_SIZE
        )
        # Both senders' CPUs work in parallel, but the shared medium
        # carries one frame at a time.
        assert network.medium.busy_time == pytest.approx(2 * wire_each)
        assert len(inboxes[3]) == 2

    def test_sender_cpu_serialises_own_frames(self):
        engine, network, processes, inboxes = make_net(n=3, kind="contention")
        network.send(frame(src=1, dst=2))
        network.send(frame(src=1, dst=3))
        engine.run()
        assert processes[1].cpu.busy_time == pytest.approx(2 * PARAMS.send_overhead)

    def test_loopback_skips_medium(self):
        engine, network, _, inboxes = make_net(kind="contention")
        network.send(frame(src=1, dst=1))
        engine.run()
        assert len(inboxes[1]) == 1
        assert network.medium.jobs_served == 0

    def test_charge_rcv_lookups_occupies_cpu(self):
        engine, network, processes, _ = make_net(kind="contention")
        network.charge_rcv_lookups(1, lookups=10)
        assert processes[1].cpu.busy_time == pytest.approx(10e-6)

    def test_charge_zero_lookups_is_free(self):
        engine, network, processes, _ = make_net(kind="contention")
        network.charge_rcv_lookups(1, lookups=0)
        assert processes[1].cpu.busy_time == 0.0

    def test_drop_in_flight_covers_frames_queued_on_the_medium(self):
        """A crashing sender's frames still queued on the shared medium
        must die with it under the drop policy — previously only frames
        not yet past the sender CPU were dropped."""
        engine, network, processes, inboxes = make_net(
            n=3, kind="contention", drop_in_flight_of_crashed_sender=True
        )
        # Five large frames queue behind each other on the medium
        # (~1ms wire time each); the first delivers before the crash at
        # t=1.5ms, the rest are still in flight and must be lost.
        for _ in range(5):
            network.send(frame(src=1, dst=2, size=10_000))
        engine.schedule(1.5e-3, processes[1].crash)
        engine.run()
        assert len(inboxes[2]) == 1
        assert network.frames_dropped == 4

    def test_in_flight_on_medium_survives_without_drop_policy(self):
        engine, network, processes, inboxes = make_net(
            n=3, kind="contention", drop_in_flight_of_crashed_sender=False
        )
        for _ in range(5):
            network.send(frame(src=1, dst=2, size=10_000))
        engine.schedule(1.5e-3, processes[1].crash)
        engine.run()
        assert len(inboxes[2]) == 5


# ----------------------------------------------------------------------
# One route per frame: every delivery is its own engine event
# ----------------------------------------------------------------------

#: All-zero costs: every contention stage completes instantly, so a
#: burst's receiver-side completions tie exactly.
ZERO_COST = NetworkParams(
    send_overhead=0.0,
    recv_overhead=0.0,
    cpu_per_byte=0.0,
    wire_overhead=0.0,
    wire_per_byte=0.0,
)


def make_timed_net(n=3, kind="constant", **kwargs):
    """A network whose inboxes record ``(delivery time, frame)``."""
    engine = Engine()
    trace = Trace()
    if kind == "constant":
        network = ConstantLatencyNetwork(engine, base=1e-3, **kwargs)
    else:
        network = ContentionNetwork(engine, ZERO_COST, **kwargs)
    inboxes = {pid: [] for pid in range(1, n + 1)}
    for pid in range(1, n + 1):
        process = SimProcess(pid, engine, trace)
        network.attach(
            process,
            {"test.data": lambda f, _pid=pid: inboxes[_pid].append(
                (engine.now, f)
            )},
        )
    return engine, network, inboxes


def burst(network, dst=2, count=4):
    for i in range(count):
        network.send(frame(dst=dst, body=i))


class TestConstantModelDeliveryEvents:
    def test_same_instant_burst_is_one_event_per_frame(self):
        engine, network, inboxes = make_timed_net()
        burst(network)
        assert engine.pending() == 4
        engine.run()
        assert [f.body for _, f in inboxes[2]] == [0, 1, 2, 3]
        assert len({t for t, _ in inboxes[2]}) == 1
        assert engine.events_executed == 4

    def test_interleaved_event_keeps_schedule_order(self):
        engine, network, inboxes = make_timed_net()
        network.send(frame(body=0))
        engine.schedule(1e-3, lambda: None)
        network.send(frame(body=1))
        assert engine.pending() == 3
        engine.run()
        assert [f.body for _, f in inboxes[2]] == [0, 1]

    def test_each_destination_and_time_is_its_own_event(self):
        engine, network, inboxes = make_timed_net()
        network.send(frame(dst=2, body=0))
        network.send(frame(dst=3, body=1))
        assert engine.pending() == 2
        engine.run(until=0.5)
        network.send(frame(dst=2, body=2))  # later time, same dst
        assert engine.pending() == 1
        engine.run()
        assert [f.body for _, f in inboxes[2]] == [0, 2]

    def test_same_time_send_from_a_handler_waits_its_delay(self):
        engine, network, _ = make_timed_net()
        relayed = []

        def relay(f):
            relayed.append(f.body)
            if f.body == 0:
                network.send(frame(src=2, dst=2, body=50))

        network._handlers[2] = {"test.data": relay}
        burst(network, count=2)
        engine.run(until=1e-3)  # exactly the burst's due time
        assert relayed == [0, 1]
        assert engine.pending() == 1  # the relayed frame waits its delay
        engine.run()
        assert relayed == [0, 1, 50]

    def test_crash_drop_policy_cancels_every_frame(self):
        engine, network, inboxes = make_timed_net(
            drop_in_flight_of_crashed_sender=True
        )
        burst(network)
        assert engine.pending() == 4
        network.process(1).crash()
        engine.run()
        assert inboxes[2] == []
        assert network.frames_dropped == 4

    def test_each_delivery_is_a_handle_on_deliver_carrying_its_frame(self):
        # What the explorer reads a link delivery by (see
        # repro.explore.scheduler.event_of).
        engine, network, _ = make_timed_net()
        burst(network)
        entries = sorted(engine.equeue.entries)
        assert [type(e) for e in entries] == [EventHandle] * 4
        assert all(e.fn == network._deliver for e in entries)
        assert [e.args[0].body for e in entries] == [0, 1, 2, 3]
        assert all(isinstance(e.args[0], Frame) for e in entries)

    def test_dst_crash_mid_burst_drops_the_rest(self):
        engine, network, inboxes = make_timed_net()

        def crash_then_receive(f):
            inboxes[2].append((engine.now, f))
            network.process(2).crash()

        network._handlers[2] = {"test.data": crash_then_receive}
        burst(network, count=3)
        engine.run()
        # First frame lands, handler crashes p2, the rest drop.
        assert len(inboxes[2]) == 1
        assert network.frames_dropped == 2


class TestContentionModelZeroCost:
    def test_zero_recv_cost_deliveries_tie(self):
        engine, network, inboxes = make_timed_net(kind="contention")
        burst(network, count=3)
        engine.run()
        assert [f.body for _, f in inboxes[2]] == [0, 1, 2]
        # Wire costs are zero too, so the three deliveries tie exactly.
        assert len({t for t, _ in inboxes[2]}) == 1
        # Sender CPU, medium and receiver CPU: three events per frame.
        assert engine.events_executed == 9

    def test_receiver_cpu_charged_per_frame(self):
        params = NetworkParams(
            send_overhead=0.0,
            recv_overhead=7e-6,
            cpu_per_byte=0.0,
            wire_overhead=0.0,
            wire_per_byte=0.0,
        )
        engine = Engine()
        network = ContentionNetwork(engine, params)
        trace = Trace()
        for pid in (1, 2):
            network.attach(
                SimProcess(pid, engine, trace), {"test.data": lambda f: None}
            )
        burst(network, count=5)
        engine.run()
        cpu = network.process(2).cpu
        assert cpu.jobs_served == 5
        assert abs(cpu.busy_time - 5 * 7e-6) < 1e-12
