"""Router key-hashing and admission control.

The hash must be a pure function of the key bytes — identical across
runs, interpreter restarts, and pool worker processes (Python's salted
``hash`` fails all three) — and resharding without a migration protocol
must fail loudly rather than silently forking per-key history.
"""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.message import make_payload
from repro.harness.runner import parallel_map
from repro.shard.router import Router, completion_stats, shard_for
from repro.shard.service import ShardSpec, build_sharded_system
from repro.shard.sweep import (
    ShardSweepSpec,
    run_shard_point,
    run_shard_sweep,
)
from repro.stack.builder import StackSpec


def _assign(key):
    """Top-level (picklable) worker for the cross-process test."""
    return shard_for(key, 16)


class TestShardFor:
    def test_pinned_assignments(self):
        # Regression anchors: these exact values are part of the data
        # contract — a changed hash re-homes every existing key.
        assert [shard_for(k, 16) for k in
                ("acct-A", "acct-B", "alpha", "beta")] == [1, 15, 14, 4]
        assert [shard_for(k, 2) for k in "ABCD"] == [1, 1, 0, 0]
        assert shard_for("hot-key", 4) == 2

    def test_stable_across_calls_and_runs(self):
        keys = [f"k{i}" for i in range(200)]
        first = [shard_for(k, 16) for k in keys]
        assert [shard_for(k, 16) for k in keys] == first

    def test_stable_across_worker_processes(self):
        keys = [f"k{i}" for i in range(64)]
        local = [_assign(k) for k in keys]
        pooled = parallel_map(_assign, keys, processes=2)
        assert pooled == local

    def test_covers_all_shards(self):
        hit = {shard_for(f"key-{i}", 16) for i in range(1000)}
        assert hit == set(range(16))

    def test_range(self):
        assert all(0 <= shard_for(f"x{i}", 7) < 7 for i in range(100))

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError, match="shards"):
            shard_for("k", 0)


def _service(shards=2, **knobs):
    return build_sharded_system(
        ShardSpec(
            stack=StackSpec(
                n=2, abcast="indirect", consensus="ct-indirect",
                network="constant", seed=3,
            ),
            shards=shards,
            **knobs,
        )
    )


#: Inside the third burst of :func:`_bursty_delay_run`.
BURSTY_DEADLINE = 4.5e-3


def _bursty_delay_run(check):
    """Sixty arrivals over three delay-policy shards of capacity 2, in
    bursts of ten 2 ms apart, the deadline inside the third burst and
    every replica of shard 2 crashed; ``check(router, now)`` runs after
    every event.  Returns the drained router."""
    service = _service(shards=3, router_capacity=2, admission="delay")
    router = service.router
    router.deadline = BURSTY_DEADLINE
    for replica in service.groups[2].processes.values():
        replica.crash()
    for i in range(60):
        service.engine.schedule_at(
            (i // 10) * 2e-3,
            lambda i=i: router.submit_shard(i % 3, make_payload(8)),
        )

    def checked():
        check(router, service.engine.now)
        return False

    service.engine.run(until=1.0, stop_when=checked)
    return router


class TestAssignmentMemoAndRebalance:
    def test_shard_of_matches_hash_and_memoizes(self):
        service = _service()
        router = service.router
        assert router.shard_of("C") == shard_for("C", 2) == 0
        assert router.shard_of("A") == shard_for("A", 2) == 1
        assert router._assignments == {"C": 0, "A": 1}

    def test_rebalance_moved_keys_fail_loudly_by_name(self):
        service = _service()
        router = service.router
        moved = [k for k in "ABCDEFGH" if shard_for(k, 2) != shard_for(k, 3)]
        assert moved, "test needs at least one moving key"
        for key in "ABCDEFGH":
            router.shard_of(key)
        with pytest.raises(ConfigurationError) as err:
            router.rebalance(3)
        for key in moved:
            assert repr(key) in str(err.value)

    def test_rebalance_without_moving_keys_is_allowed(self):
        service = _service()
        router = service.router
        # Nothing routed yet: no assignment can move.
        router.rebalance(3)
        # A key whose owner is 0 under both 2 and 4 shards is safe too.
        stable = next(
            k for k in (f"s{i}" for i in range(1000))
            if shard_for(k, 2) == shard_for(k, 4)
        )
        router.shard_of(stable)
        router.rebalance(4)


class TestAdmission:
    def test_shed_policy_drops_over_capacity(self):
        service = _service(router_capacity=2, admission="shed")
        router = service.router
        admitted = [router.submit_shard(0, make_payload(8)) for _ in range(5)]
        assert admitted == [True, True, False, False, False]
        assert router.offered[0] == 5
        assert router.admitted[0] == 2
        assert router.shed[0] == 3
        service.run_until_quiescent(timeout=1.0)
        assert len(router.completions[0]) == 2

    def test_delay_policy_parks_until_capacity_frees(self):
        service = _service(router_capacity=1, admission="delay")
        router = service.router
        router.deadline = 1.0
        for _ in range(4):
            router.submit_shard(0, make_payload(8))
        assert router.delayed[0] == 3
        assert service.run_until_quiescent(timeout=2.0)
        # Every parked op was eventually admitted and completed.
        assert router.shed[0] == 0
        assert router.admitted[0] == 4
        assert len(router.completions[0]) == 4

    def test_delay_policy_sheds_parked_ops_past_deadline(self):
        """Ops still parked when the deadline passes are shed by it, and
        from then on an over-capacity arrival is shed, not parked."""
        service = _service(router_capacity=1, admission="delay")
        router = service.router
        router.deadline = 1e-4  # before the first op can complete
        for _ in range(3):
            router.submit_shard(0, make_payload(8))
        assert router.delayed[0] == 2 and router.pending() == 3
        service.engine.run(until=2e-4)
        assert router.shed[0] == 2 and router.pending() == 1
        assert router.inflight(0) == 1  # the admitted op, still in flight
        assert router.submit_shard(0, make_payload(8)) is False
        assert router.shed[0] == 3 and router.delayed[0] == 2
        assert service.run_until_quiescent(timeout=2.0)
        assert router.admitted[0] == 1 and len(router.completions[0]) == 1
        assert router.pending() == 0

    def test_pending_count_equals_the_in_flight_and_parked_sum(self):
        """``pending()`` is a running count; after every event of a
        delay-policy run it must equal the in-flight plus the queue
        lengths — through parks, completions that admit the queue head,
        deadline sheds and forwards that find every replica of their
        shard crashed."""
        seen = []

        def agrees(router, now):
            parked = sum(len(queue) for queue in router._parked)
            expected = sum(len(s) for s in router._inflight) + parked
            assert router.pending() == expected
            seen.append((now, expected, parked))

        router = _bursty_delay_run(agrees)
        assert len(seen) > 100 and max(p for _, p, _ in seen) >= 6
        assert sum(router.delayed) > 0
        # Ops were still parked when the deadline passed; it shed them.
        assert [q for t, _, q in seen if t < BURSTY_DEADLINE][-1] > 0
        assert all(q == 0 for t, _, q in seen if t >= BURSTY_DEADLINE)
        assert router.shed[0] > 0
        assert router.shed[2] == 20 and router.admitted[2] == 0  # no replica
        assert router.pending() == 0

    def test_parked_ops_are_admitted_in_arrival_order(self):
        """A freed slot goes to the oldest parked op, and an arrival
        never overtakes a parked one."""
        service = _service(router_capacity=1, admission="delay")
        router = service.router
        router.deadline = 1.0
        for at in (0.0, 1e-4, 2e-4, 3e-4, 1e-3, 1.1e-3, 1.5e-3, 3e-3):
            service.engine.schedule_at(
                at, lambda: router.submit_shard(0, make_payload(8))
            )
        service.engine.run(until=3e-3)
        assert service.run_until_quiescent(timeout=2.0)
        arrivals = [arrival for arrival, _ in router.completions[0]]
        assert len(arrivals) == 8 and router.delayed[0] > 3
        assert arrivals == sorted(arrivals)

    def test_every_offered_op_is_admitted_shed_or_parked(self):
        """``admitted + shed + parked == offered`` per shard after every
        event of the same run."""
        events = []

        def balanced(router, now):
            for shard in range(3):
                assert (
                    router.admitted[shard] + router.shed[shard]
                    + len(router._parked[shard])
                ) == router.offered[shard]
            events.append(now)

        router = _bursty_delay_run(balanced)
        assert len(events) > 100 and sum(router.offered) == 60

    def test_short_drain_delay_point_accounts_for_every_offer(self):
        """A delay point whose drain is too short for its backlog sheds
        what is still parked at the end of the run, so every row still
        has ``admitted + shed == offered``."""
        spec = ShardSweepSpec(
            name="short-drain",
            stack=StackSpec(n=2, abcast="indirect", consensus="ct-indirect",
                            network="constant", seed=3),
            shards=(2,), offered_loads=(8000.0,),
            duration=0.05, warmup=0.01, drain=1e-3,
            router_capacity=1, admission="delay",
        )
        (point,) = spec.points()
        rows = run_shard_point(point).to_rows()
        assert all(row["shard.shed"] > 0 for row in rows)
        for row in rows:
            assert (
                row["shard.admitted"] + row["shard.shed"]
                == row["shard.offered"]
            )

    def test_completion_measures_sojourn(self):
        service = _service()
        router = service.router
        router.submit_shard(1, make_payload(8))
        assert service.run_until_quiescent(timeout=1.0)
        ((arrival, sojourn),) = router.completions[1]
        assert arrival == 0.0
        assert sojourn > 0.0
        stats = router.shard_stats(1)
        assert stats["completed"] == 1.0
        assert stats["sojourn_p99_ms"] == pytest.approx(sojourn * 1e3)

    def test_inflight_counts_admitted_until_first_adelivery(self):
        service = _service()
        router = service.router
        router.submit_shard(1, make_payload(8))
        assert [router.inflight(0), router.inflight(1)] == [0, 1]
        assert service.run_until_quiescent(timeout=1.0)
        assert router.inflight(1) == 0

    def test_routed_submit_lands_on_owner_shard(self):
        service = _service()
        router = service.router
        router.submit("C", make_payload(8))  # owner: shard 0
        router.submit("A", make_payload(8))  # owner: shard 1
        assert service.run_until_quiescent(timeout=1.0)
        assert [router.offered[0], router.offered[1]] == [1, 1]
        assert len(router.completions[0]) == 1
        assert len(router.completions[1]) == 1


def _ramp(admission):
    """(offered, goodput, shed, sojourn p99 ms) per point of a
    two-shard offered-load ramp that crosses the service's capacity."""
    spec = ShardSweepSpec(
        name=f"ramp-{admission}",
        stack=StackSpec(n=3, abcast="indirect", consensus="ct-indirect",
                        seed=7),
        shards=(2,), offered_loads=(500.0, 1500.0, 3000.0, 5000.0),
        duration=0.25, warmup=0.05, drain=0.25,
        router_capacity=32, admission=admission,
    )
    curve = []
    rows = run_shard_sweep(spec, processes=1)
    for (offered,), point in rows.group_by("offered").items():
        curve.append((
            offered,
            sum(point.column("shard.goodput")),
            sum(point.column("shard.shed")),
            point.column("admission.sojourn_p99_ms")[0],
        ))
    return sorted(curve)


class TestSaturation:
    def test_shed_ramp_brackets_the_saturation_knee(self):
        curve = _ramp("shed")
        served = [offered for offered, goodput, _, _ in curve
                  if goodput >= 0.9 * offered]
        # The lowest load is served and the highest is not, so the
        # ramp brackets capacity; past it the policy sheds.
        assert served and served[0] == curve[0][0], curve
        assert max(served) < curve[-1][0], curve
        assert curve[0][2] == 0 and curve[-1][2] > 0, curve

    def test_delay_parks_the_overload_that_shed_drops(self):
        shed_top = _ramp("shed")[-1]
        delay_top = _ramp("delay")[-1]
        # At 2.5x the shed knee the delay policy admits what shed
        # drops and pays for it in sojourn time.
        assert delay_top[2] < shed_top[2], (delay_top, shed_top)
        assert delay_top[1] > shed_top[1], (delay_top, shed_top)
        assert delay_top[3] > shed_top[3], (delay_top, shed_top)


class TestCompletionStats:
    """The one window over the completion log."""

    def test_empty_window_is_zero(self):
        assert completion_stats([], 1.0) == {
            "completed": 0.0,
            "goodput": 0.0,
            "sojourn_p50_ms": 0.0,
            "sojourn_p99_ms": 0.0,
            "sojourn_mean_ms": 0.0,
        }

    def test_nearest_rank_percentiles(self):
        log = [(0.0, s) for s in (0.004, 0.001, 0.003, 0.002)]
        stats = completion_stats(log, 2.0)
        assert stats["completed"] == 4.0
        assert stats["goodput"] == 2.0
        assert stats["sojourn_p50_ms"] == 3.0
        assert stats["sojourn_p99_ms"] == 4.0
        assert stats["sojourn_mean_ms"] == pytest.approx(2.5)
        assert completion_stats([(0.0, 0.0075)], 1.0)["sojourn_p99_ms"] == 7.5

    def test_window_is_half_open_on_arrival(self):
        log = [(0.1, 0.001), (0.2, 0.002), (0.3, 0.003)]
        stats = completion_stats(log, 0.2, lo=0.1, hi=0.3)
        assert stats["completed"] == 2.0
        assert stats["goodput"] == pytest.approx(10.0)
        assert stats["sojourn_p99_ms"] == 2.0
