"""Same-(time, destination) delivery batching: equivalence + gating.

PR 6 lets a network coalesce back-to-back frames due at the same
instant to the same destination into one scheduled event draining a
batch list.  The contract is strict bit-identity: receivers see the
same frames, in the same order, at the same simulated times, whether
or not batching engaged — batching only changes how many engine events
carry them.  These tests pin the equivalence, the seq-adjacency close
condition, and the gates (annotating engines and the lost-socket-
buffers policy must keep one individually cancellable/deferrable event
per frame).
"""

from repro.net.frame import Frame
from repro.net.models import ConstantLatencyNetwork, ContentionNetwork, NetworkParams
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.trace import Trace

# All-zero costs: every stage completes instantly, so a burst's
# receiver-side completions tie exactly and the coalescing path runs.
PARAMS = NetworkParams(
    send_overhead=0.0,
    recv_overhead=0.0,
    cpu_per_byte=0.0,
    wire_overhead=0.0,
    wire_per_byte=0.0,
)


def make_net(n=3, kind="constant", annotating=False, **kwargs):
    engine = Engine(annotating=annotating)
    trace = Trace()
    if kind == "constant":
        network = ConstantLatencyNetwork(engine, base=1e-3, **kwargs)
    else:
        network = ContentionNetwork(engine, PARAMS, **kwargs)
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


def frame(src=1, dst=2, seq=0):
    return Frame(src=src, dst=dst, kind="test.data", body=seq, size=100)


def burst(network, dst=2, count=4):
    for i in range(count):
        network.send(frame(dst=dst, seq=i))


class TestConstantModelBatching:
    def test_burst_coalesces_into_one_event(self):
        engine, network, inboxes = make_net()
        burst(network)
        assert engine.pending() == 1  # four frames, one delivery event
        engine.run()
        assert [f.body for _, f in inboxes[2]] == [0, 1, 2, 3]
        assert engine.events_executed == 1

    def test_batched_and_unbatched_inboxes_identical(self):
        outcomes = []
        for annotating in (False, True):
            engine, network, inboxes = make_net(annotating=annotating)
            burst(network, dst=2)
            burst(network, dst=3, count=2)
            network.send(frame(src=3, dst=2, seq=99))
            engine.run()
            outcomes.append({
                pid: [(t, f.src, f.body) for t, f in inbox]
                for pid, inbox in inboxes.items()
            })
        assert outcomes[0] == outcomes[1]

    def test_interleaved_schedule_closes_the_batch(self):
        engine, network, inboxes = make_net()
        network.send(frame(seq=0))
        engine.schedule(1e-3, lambda: None)  # anything breaks seq-adjacency
        network.send(frame(seq=1))
        assert engine.pending() == 3
        engine.run()
        assert [f.body for _, f in inboxes[2]] == [0, 1]

    def test_different_destination_or_time_never_coalesces(self):
        engine, network, inboxes = make_net()
        network.send(frame(dst=2, seq=0))
        network.send(frame(dst=3, seq=1))
        assert engine.pending() == 2
        engine.run(until=0.5)
        network.send(frame(dst=2, seq=2))  # later time, same dst
        assert engine.pending() == 1
        engine.run()
        assert [f.body for _, f in inboxes[2]] == [0, 2]

    def test_send_from_within_batch_drain_is_not_appended(self):
        """A same-time send issued by a receiver handler must schedule
        its own event (the open batch already fired)."""
        engine, network, inboxes = make_net()
        relayed = []

        def relay(f):
            relayed.append(f.body)
            if f.body == 0:
                network.send(frame(src=2, dst=2, seq=50))

        network._handlers[2] = {"test.data": relay}
        burst(network, count=2)
        engine.run(until=1e-3)  # exactly the batch's due time
        assert relayed == [0, 1]
        assert engine.pending() == 1  # the relayed frame waits its delay
        engine.run()
        assert relayed == [0, 1, 50]

    def test_crash_drop_policy_disables_batching(self):
        engine, network, inboxes = make_net(
            drop_in_flight_of_crashed_sender=True
        )
        burst(network)
        # One event per frame: in-flight tracking cancels individually.
        assert engine.pending() == 4
        network.process(1).crash()
        engine.run()
        assert inboxes[2] == []
        assert network.frames_dropped == 4

    def test_annotating_engine_keeps_per_frame_events(self):
        engine, network, _ = make_net(annotating=True)
        burst(network)
        assert engine.pending() == 4
        infos = [rec.info for _, _, rec in engine.pending_entries()]
        assert all(isinstance(i, Frame) for i in infos)

    def test_dst_crash_mid_batch_drops_only_its_frames(self):
        engine, network, inboxes = make_net()

        def crash_then_receive(f):
            inboxes[2].append((engine.now, f))
            network.process(2).crash()

        network._handlers[2] = {"test.data": crash_then_receive}
        burst(network, count=3)
        engine.run()
        # First frame lands, handler crashes p2, rest of the batch drops.
        assert len(inboxes[2]) == 1
        assert network.frames_dropped == 2


class TestContentionModelBatching:
    def test_zero_recv_cost_completions_coalesce(self):
        engine, network, inboxes = make_net(kind="contention")
        burst(network, count=3)
        engine.run()
        assert [f.body for _, f in inboxes[2]] == [0, 1, 2]
        times = [t for t, _ in inboxes[2]]
        # Wire costs are zero too, so the three deliveries tie exactly.
        assert len(set(times)) == 1

    def test_matches_annotated_run_exactly(self):
        results = []
        for annotating in (False, True):
            engine, network, inboxes = make_net(
                kind="contention", annotating=annotating
            )
            burst(network, count=3)
            burst(network, dst=3, count=2)
            engine.run()
            results.append((
                {
                    pid: [(t, f.src, f.body) for t, f in inbox]
                    for pid, inbox in inboxes.items()
                },
                engine.now,
            ))
        assert results[0] == results[1]

    def test_cpu_accounting_charged_per_frame(self):
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
