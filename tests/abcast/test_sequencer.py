"""Scenario tests for the fixed-sequencer atomic broadcast baseline.

Acceptance criteria of the registry tentpole: the sequencer stack
passes the ``checkers/abcast.py`` ordering/validity checkers under
crash and partition scenarios — including a crash of the sequencer
itself with FD-driven epoch handover — and compares against the
indirect stack through the ordinary sweep pipeline.
"""

import pytest

from repro import (
    CrashSchedule,
    PartitionWindow,
    StackSpec,
    build_system,
    check_abcast,
    make_payload,
)
from repro.abcast.sequencer import SequencerAtomicBroadcast
from repro.core.exceptions import ConfigurationError
from repro.metrics.probes import TrafficProbe


def spec(n=3, **overrides):
    defaults = dict(
        n=n, abcast="sequencer", consensus="none", network="constant",
        constant_latency=2e-4, fd_detection_delay=5e-3,
    )
    defaults.update(overrides)
    return StackSpec(**defaults)


def send_burst(system, schedule):
    """Schedule ``(pid, time)`` abroadcasts; returns the count per pid."""
    counts: dict[int, int] = {}
    for pid, at in schedule:
        counts[pid] = counts.get(pid, 0) + 1
        system.processes[pid].schedule_at(
            at, lambda p=pid: system.abcasts[p].abroadcast(make_payload(16))
        )
    return counts


class TestFailureFree:
    def test_total_order_across_processes(self):
        system = build_system(spec())
        send_burst(system, [(1, 0.001), (2, 0.0012), (3, 0.0013),
                            (2, 0.004), (1, 0.0041)])
        assert system.run_until_delivered(count=5, timeout=2.0)
        check_abcast(system.trace, system.config)
        reference = system.trace.adelivery_sequence(1)
        assert len(reference) == 5
        for pid in (2, 3):
            assert system.trace.adelivery_sequence(pid) == reference

    def test_epoch0_sequencer_is_lowest_pid(self):
        system = build_system(spec())
        abcast = system.abcasts[1]
        assert isinstance(abcast, SequencerAtomicBroadcast)
        assert abcast.sequencer_of(0) == 1
        assert abcast.is_active_sequencer()
        assert not system.abcasts[2].is_active_sequencer()

    def test_heartbeat_fd_variant_delivers(self):
        system = build_system(spec(fd="heartbeat"))
        send_burst(system, [(2, 0.01), (3, 0.02)])
        assert system.run_until_delivered(count=2, timeout=2.0)
        check_abcast(system.trace, system.config)

    def test_bad_resend_interval_rejected(self):
        system = build_system(spec())
        with pytest.raises(ConfigurationError):
            SequencerAtomicBroadcast(
                system.transports[1], system.detectors[1], system.config,
                resend_interval=0.0,
            )


class TestSequencerCrashHandover:
    def test_sequencer_crash_hands_over_and_keeps_ordering(self):
        system = build_system(spec(), CrashSchedule.single(1, 0.010))
        send_burst(system, [
            (1, 0.001), (2, 0.002), (3, 0.003),       # before the crash
            (2, 0.020), (3, 0.025), (2, 0.200),       # across the handover
        ])
        system.run(until=3.0, max_events=2_000_000)
        check_abcast(system.trace, system.config)
        # p2 (next in rank) took over; survivors share one sequence of
        # everything the correct senders broadcast.
        assert system.abcasts[2].epoch >= 1
        assert system.abcasts[2].is_active_sequencer()
        seq2 = system.trace.adelivery_sequence(2)
        assert seq2 == system.trace.adelivery_sequence(3)
        survivors_sent = {
            e.message.mid for e in system.trace.abroadcasts()
            if e.message.mid.origin != 1
        }
        assert survivors_sent <= set(seq2)

    def test_the_traffic_probe_counts_a_handover_as_data(self):
        """The handover's state and seal frames ship whole message logs,
        so their bytes count as data, like the forwards and orderings;
        control is the wedges, syncs, repairs and heartbeats."""
        system = build_system(spec(), CrashSchedule.single(1, 0.010))
        send_burst(system, [(1, 0.001), (2, 0.002), (3, 0.003), (2, 0.020)])
        system.run(until=1.0, max_events=2_000_000)
        fields = dict(TrafficProbe.measure(system.network).fields)
        sent = {
            name[len("bytes."):]: total for name, total in fields.items()
            if name.startswith("bytes.")
        }
        handover = [
            kind for kind in sent if kind.startswith(("seq.state", "seq.seal"))
        ]
        carrying = ("seq.fwd", "seq.order", "seq.state", "seq.seal")
        assert len(handover) == 2 and all(sent[kind] > 0 for kind in handover)
        assert fields["data_bytes"] == sum(
            total for kind, total in sent.items() if kind.startswith(carrying)
        )
        assert fields["control_bytes"] == sum(
            total for kind, total in sent.items()
            if not kind.startswith(carrying)
        ) > 0

    def test_renumbered_copy_after_adelivery_leaves_no_ordered_id(self):
        """After a handover, a renumbered copy of an adelivered message
        arrives in an order frame at a fresh slot and in a later seal at
        a slot delivery has passed.  Neither is adelivered again, and no
        id is left in the ordered-id set."""
        system = build_system(spec(), CrashSchedule.single(1, 0.010))
        send_burst(system, [(2, 0.001), (3, 0.002), (2, 0.020), (3, 0.025)])
        system.run(until=3.0, max_events=2_000_000)
        abcast = system.abcasts[2]
        assert abcast.epoch >= 1
        delivered = abcast.delivered_count()
        assert delivered == 4
        assert not abcast._ordered_mids
        _, first = abcast.log[1]
        fresh = max(abcast.log) + 1
        assert abcast.next_deliver == fresh
        abcast._accept(abcast.epoch, fresh, first, relay=False)
        later = abcast.epoch + 1
        abcast._apply_seal(later, {1: (later, first)}, fresh)
        assert abcast.next_deliver == fresh + 1
        assert abcast.delivered_count() == delivered
        assert len(system.trace.adelivery_sequence(2)) == delivered
        assert not abcast._ordered_mids

    def test_sequencer_crash_with_lost_socket_buffers(self):
        """Orderings queued at the crashing sequencer die with it; the
        senders' retry timers re-forward to the new sequencer."""
        system = build_system(
            spec(drop_in_flight_on_crash=True),
            CrashSchedule.single(1, 0.0005),
        )
        send_burst(system, [(2, 0.0001), (3, 0.0002), (2, 0.050)])
        system.run(until=3.0, max_events=2_000_000)
        check_abcast(system.trace, system.config)
        seq2 = system.trace.adelivery_sequence(2)
        assert len(seq2) == 3
        assert seq2 == system.trace.adelivery_sequence(3)

    @pytest.mark.parametrize("first_sender", [2, 3])
    def test_renumbering_cannot_contradict_sequencer_deliveries(
        self, first_sender
    ):
        """The sequencer assigns two forwarded messages and dies before
        any order frame escapes.  Survivors renumber the messages via
        their retry timers — in an order that need not match the dead
        sequencer's assignment order (both send interleavings are
        exercised).  The sequencer must therefore not have adelivered
        its unechoed assignments: it waits for the first relay echo."""
        second_sender = 5 - first_sender
        system = build_system(
            spec(drop_in_flight_on_crash=True),
            CrashSchedule.single(1, 0.0005),
        )
        send_burst(system, [
            (first_sender, 0.0001), (second_sender, 0.0002),
            (2, 0.050),
        ])
        system.run(until=3.0, max_events=2_000_000)
        check_abcast(system.trace, system.config)
        # The unstable assignments were never delivered at p1 ...
        assert system.trace.adelivery_sequence(1) == []
        # ... and both survivors converge on one renumbered order.
        seq2 = system.trace.adelivery_sequence(2)
        assert len(seq2) == 3
        assert seq2 == system.trace.adelivery_sequence(3)

    def test_sequencer_delivers_own_assignment_after_first_echo(self):
        system = build_system(spec())
        send_burst(system, [(1, 0.001)])
        # One one-way latency to fan out + one back for the echo, plus
        # scheduling slack: the sequencer's own delivery needs a round
        # trip, not zero time.
        system.run(until=0.0011, max_events=100_000)
        assert system.abcasts[1].delivered_count() == 0
        assert system.run_until_delivered(count=1, timeout=1.0)
        check_abcast(system.trace, system.config)

    def test_double_crash_walks_down_the_rank(self):
        """p1 then p2 crash: p3 ends up sequencer of a later epoch."""
        system = build_system(
            spec(n=4),
            CrashSchedule.of((1, 0.010), (2, 0.030)),
        )
        send_burst(system, [(3, 0.001), (4, 0.002), (3, 0.060), (4, 0.200)])
        system.run(until=3.0, max_events=2_000_000)
        check_abcast(system.trace, system.config)
        assert system.abcasts[3].is_active_sequencer()
        seq3 = system.trace.adelivery_sequence(3)
        assert seq3 == system.trace.adelivery_sequence(4)
        assert len(seq3) == 4

    def test_non_sequencer_crash_needs_no_handover(self):
        system = build_system(spec(), CrashSchedule.single(3, 0.010))
        send_burst(system, [(1, 0.001), (2, 0.002), (1, 0.050)])
        system.run(until=2.0, max_events=2_000_000)
        check_abcast(system.trace, system.config)
        assert system.abcasts[1].epoch == 0
        assert system.abcasts[1].is_active_sequencer()
        assert len(system.trace.adelivery_sequence(1)) == 3


class TestPartitions:
    def test_minority_heals_after_partition_window(self):
        """p3 is cut off from the sequencer; sync/repair catches it up."""
        window = PartitionWindow(start=0.005, end=0.100, groups=((1, 2), (3,)))
        system = build_system(spec(faults=(window,)))
        send_burst(system, [(1, 0.001), (2, 0.010), (1, 0.050), (3, 0.020)])
        system.run(until=3.0, max_events=2_000_000)
        check_abcast(system.trace, system.config)
        seq1 = system.trace.adelivery_sequence(1)
        assert len(seq1) == 4  # p3's message lands after the heal
        assert system.trace.adelivery_sequence(3) == seq1

    def test_sequencer_isolated_then_healed(self):
        """The sequencer itself is partitioned away (no crash, oracle FD
        stays quiet): the group stalls, then drains after the heal."""
        window = PartitionWindow(start=0.004, end=0.150, groups=((1,), (2, 3)))
        system = build_system(spec(faults=(window,)))
        send_burst(system, [(2, 0.001), (3, 0.010), (2, 0.080)])
        system.run(until=3.0, max_events=2_000_000)
        check_abcast(system.trace, system.config)
        for pid in (1, 2, 3):
            assert len(system.trace.adelivery_sequence(pid)) == 3


class TestThroughTheSweepPipeline:
    def test_sequencer_vs_indirect_through_run_suite(self, tmp_path):
        """The baseline comparison the registry exists for: sequencer
        and indirect stacks side by side in one closed-loop sweep grid,
        through the ordinary cache/pool pipeline."""
        from repro.harness.runner import run_suite
        from repro.harness.suite import SweepSpec

        sweep = SweepSpec(
            name="seq-vs-indirect",
            variants=(
                ("sequencer", spec(network="contention")),
                ("indirect", StackSpec(n=3, abcast="indirect",
                                       consensus="ct-indirect", rb="sender")),
            ),
            throughputs=(100.0, 300.0),
            payloads=(64,),
            target_messages=20,
            warmup=0.02,
            drain=1.0,
            workload="closed-loop",
        )
        suite = run_suite(sweep, cache_dir=tmp_path, processes=2)
        assert (suite.cache_hits, suite.cache_misses) == (0, 4)
        by_name = suite.by_name()
        for rate in (100, 300):
            seq = by_name[f"seq-vs-indirect/sequencer n=3 {rate}msg/s 64B seed=0"]
            ind = by_name[f"seq-vs-indirect/indirect n=3 {rate}msg/s 64B seed=0"]
            for result in (seq, ind):
                assert result.sent > 0
                assert result.undelivered == 0
                assert result.metric("latency")["mean_ms"] > 0
            # Failure-free, the sequencer orders in one hop + fan-out:
            # it must beat the consensus stack's multi-round latency.
            assert (
                seq.metric("latency")["mean_ms"]
                < ind.metric("latency")["mean_ms"]
            ), rate
        # Identical grid re-run: served from cache, identical numbers.
        again = run_suite(sweep, cache_dir=tmp_path, processes=2)
        assert (again.cache_hits, again.cache_misses) == (4, 0)
        assert again.results[0].metrics == suite.results[0].metrics
