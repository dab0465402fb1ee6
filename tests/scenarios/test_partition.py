"""Partition-window scenarios: a timed split of the group.

Atomic broadcast over ◇S consensus tolerates a minority being cut off:
the majority side keeps ordering and delivering, the minority side
stalls, and safety (prefix-consistent total order) holds throughout —
there is no view-synchronous membership here, so a healed minority
process stays behind until a state transfer it does not have.  These
are exactly the dynamics the tests pin.
"""

import pytest

from repro import (
    CrashSchedule,
    PartitionWindow,
    StackSpec,
    SymmetricWorkload,
    build_system,
)
from repro.checkers.abcast import AbcastChecker
from repro.core.exceptions import ConfigurationError


def check_safety(system):
    """Safety-only property set.  A finite partitioned trace
    legitimately fails abcast *Validity* and *Agreement* (the stalled
    minority misses messages until the partition heals plus a state
    transfer it does not have — liveness), but integrity and total
    order must hold unconditionally: nobody delivers twice, nobody
    delivers out of order, no fork."""
    checker = AbcastChecker(system.trace, system.config)
    checker.check_uniform_integrity()
    checker.check_uniform_total_order()


def partitioned_system(windows=(), seed=3):
    spec = StackSpec(
        n=3,
        abcast="indirect",
        consensus="ct-indirect",
        rb="flood",
        network="constant",
        faults=tuple(windows),
        seed=seed,
    )
    system = build_system(spec)
    SymmetricWorkload(
        system, throughput=100, payload_size=50, duration=0.6
    ).install()
    system.run(until=2.0, max_events=5_000_000)
    return system


WINDOW = PartitionWindow(start=0.2, end=0.45, groups=((1, 2), (3,)))


class TestPartitionWindowScenario:
    def test_majority_side_keeps_delivering(self):
        system = partitioned_system(windows=(WINDOW,))
        check_safety(system)  # safety throughout
        majority = system.trace.adelivery_sequence(1)
        assert system.trace.adelivery_sequence(2) == majority
        # Deliveries kept happening during the window on the majority side.
        in_window = [
            e
            for e in system.trace.adeliveries()
            if e.process == 1 and WINDOW.start < e.time < WINDOW.end
        ]
        assert in_window

    def test_minority_side_stalls_on_a_consistent_prefix(self):
        system = partitioned_system(windows=(WINDOW,))
        majority = system.trace.adelivery_sequence(1)
        minority = system.trace.adelivery_sequence(3)
        assert len(minority) < len(majority)
        assert majority[: len(minority)] == minority  # prefix, no fork

    def test_without_the_window_everyone_stays_level(self):
        system = partitioned_system(windows=())
        seqs = {
            pid: tuple(system.trace.adelivery_sequence(pid))
            for pid in (1, 2, 3)
        }
        assert len(set(seqs.values())) == 1
        assert len(seqs[1]) > 0

    def test_spec_validates_process_ids(self):
        window = PartitionWindow(0.1, 0.2, ((1, 9),))
        with pytest.raises(ConfigurationError, match="unknown p9"):
            StackSpec(n=3, faults=(window,))
        with pytest.raises(ConfigurationError, match="unknown p0"):
            StackSpec(n=3, faults=(PartitionWindow(0.1, 0.2, ((0,),)),))

    def test_partition_composes_with_crashes(self):
        """A crash on the majority side *during* the partition: the
        remaining majority pair (p1 alone cannot decide) stalls until
        the window heals p3 back in — then p1+p3 resume.  Safety holds
        through the whole episode."""
        spec = StackSpec(
            n=3,
            abcast="indirect",
            consensus="ct-indirect",
            network="constant",
            faults=(WINDOW,),
            fd_detection_delay=15e-3,
            seed=5,
        )
        system = build_system(spec, CrashSchedule.single(2, 0.3))
        SymmetricWorkload(
            system, throughput=100, payload_size=50, duration=0.6
        ).install()
        system.run(until=3.0, max_events=5_000_000)
        check_safety(system)
        # p1 and p3 converge once the partition heals.
        s1 = system.trace.adelivery_sequence(1)
        s3 = system.trace.adelivery_sequence(3)
        shorter = min(len(s1), len(s3))
        assert shorter > 0
        assert s1[:shorter] == s3[:shorter]
