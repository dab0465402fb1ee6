"""Whole-system determinism: identical specs + seeds => identical traces.

This is the regression guarantee every reproduced figure and every
benchmark number rests on, so it is asserted at full-stack granularity for
several stack variants, including runs with crashes.
"""

import pytest

from repro import CrashSchedule, StackSpec, SymmetricWorkload, build_system


def run_once(spec: StackSpec, crashes=None, throughput=150.0, duration=0.4):
    system = build_system(spec, crashes)
    SymmetricWorkload(
        system, throughput=throughput, payload_size=64, duration=duration
    ).install()
    system.run(until=duration + 1.0, max_events=3_000_000)
    return system


def fingerprint(system):
    return [repr(e) for e in system.trace.events]


@pytest.mark.parametrize(
    "abcast,consensus",
    [
        ("indirect", "ct-indirect"),
        ("indirect", "mr-indirect"),
        ("faulty-ids", "ct"),
        ("urb-ids", "ct"),
        ("on-messages", "ct"),
    ],
)
def test_identical_runs_produce_identical_traces(abcast, consensus):
    spec = StackSpec(n=3, abcast=abcast, consensus=consensus, seed=11)
    a = run_once(spec)
    b = run_once(spec)
    assert fingerprint(a) == fingerprint(b)
    assert a.engine.events_executed == b.engine.events_executed


def test_determinism_with_crashes_and_heartbeat_fd():
    spec = StackSpec(
        n=3, abcast="indirect", consensus="ct-indirect", fd="heartbeat", seed=4
    )
    crashes = CrashSchedule.single(3, 0.15)
    a = run_once(spec, crashes)
    b = run_once(spec, crashes)
    assert fingerprint(a) == fingerprint(b)


def test_different_seeds_produce_different_arrivals():
    a = run_once(StackSpec(n=3, seed=1))
    b = run_once(StackSpec(n=3, seed=2))
    assert fingerprint(a) != fingerprint(b)


def test_seed_changes_do_not_change_safety():
    """Whatever the seed, the delivered sequences agree across processes."""
    for seed in range(5):
        system = run_once(StackSpec(n=3, seed=seed))
        sequences = {
            pid: tuple(system.trace.adelivery_sequence(pid))
            for pid in system.config.processes
        }
        assert len(set(sequences.values())) == 1
