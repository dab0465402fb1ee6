"""The event store against a reference model of its contract.

The contract is one sentence: events fire in ``(time, seq)`` order,
``seq`` being scheduling order, and a cancelled event never fires.  The
reference model below states exactly that — a sorted list of
``(time, seq)`` keys — and every test drives the real store (the
binary heap of ``repro.sim.equeue``) and the model through the same
seeded adversarial workload: same-tick bursts, exact ties, dense and
far-future times, cancellation and re-arming from inside callbacks,
fire-and-forget entries mixed with cancelable handles, and runs cut at
several horizons.  Any ordering bug desynchronises the shared RNG and
shows up as a diverging log.
"""

import random
from bisect import insort

import pytest

from repro.sim.engine import Engine, Scheduler
from repro.sim.equeue import (
    CANCELLED,
    FINISHED,
    PENDING,
    SEQ,
    TIME,
    EventHandle,
)
from tests.helpers import DecidesAt

TICK = 32e-6
HORIZONS = (0.7, 2.5, 5.0)


class Reference:
    """The contract and nothing else: a sorted list of (time, seq)."""

    def __init__(self):
        self.keys: list[tuple[float, int]] = []
        self.events: dict[tuple[float, int], tuple] = {}
        self.seq = 0
        self.now = 0.0

    def schedule_at(self, time, fn, *args):
        self.seq += 1
        key = (time, self.seq)
        insort(self.keys, key)
        self.events[key] = (fn, args)
        return key

    push_entry = schedule_at

    def cancel(self, key):
        if key in self.events:
            self.keys.remove(key)
            del self.events[key]

    def run(self, until):
        while self.keys and self.keys[0][0] <= until:
            key = self.keys.pop(0)
            fn, args = self.events.pop(key)
            self.now = key[0]
            fn(*args)
        self.now = max(self.now, until)

    def pending(self):
        return len(self.keys)


class Real:
    """The same surface over an :class:`Engine`."""

    def __init__(self):
        self.engine = Engine()

    @property
    def now(self):
        return self.engine.now

    def schedule_at(self, time, fn, *args):
        return self.engine.schedule_at(time, fn, *args)

    def push_entry(self, time, fn, *args):
        return self.engine.equeue.push_entry(time, fn, args)

    def cancel(self, handle):
        handle.cancel()

    def run(self, until):
        self.engine.run(until=until, max_events=200_000)

    def pending(self):
        return self.engine.pending()


def adversarial(api, seed, initial=60, plain_share=0.4, midway=None):
    """Seeded workload; returns the firing log and the pending trail.

    ``plain_share`` of the callbacks' pushes are fire-and-forget
    entries; ``midway`` runs between the first two horizons."""
    rng = random.Random(seed)
    log: list[tuple] = []
    handles: list = []
    counter = [0]

    def delta():
        roll = rng.random()
        if roll < 0.25:
            return 0.0                            # same-tick burst
        if roll < 0.45:
            return TICK * rng.randint(1, 4)       # exact ties across pushes
        if roll < 0.65:
            return rng.uniform(0.0, TICK)         # dense
        if roll < 0.85:
            return rng.uniform(0.0, 50 * TICK)
        return rng.uniform(0.5, 2.0)              # far-future timer

    def fire(label):
        log.append((round(api.now, 12), label, api.pending()))
        for _ in range(rng.randint(0, 2)):
            counter[0] += 1
            if rng.random() < plain_share:
                # Fire-and-forget: never cancelled, no handle kept.
                api.push_entry(api.now + delta(), fire, counter[0])
            else:
                handles.append(
                    api.schedule_at(api.now + delta(), fire, counter[0])
                )
        if handles and rng.random() < 0.2:
            api.cancel(handles.pop(rng.randrange(len(handles))))

    for _ in range(initial):
        counter[0] += 1
        handles.append(api.schedule_at(delta(), fire, counter[0]))
    trail = []
    for until in HORIZONS:
        api.run(until)
        trail.append((api.now, api.pending()))
        if midway is not None and until == HORIZONS[0]:
            midway(api)
    return log, trail


class TestAgainstReference:
    @pytest.mark.parametrize("plain_share", [0.0, 0.4, 0.9])
    @pytest.mark.parametrize("seed", range(10))
    def test_adversarial_schedules_fire_in_reference_order(
        self, seed, plain_share
    ):
        """All-handle, mixed and mostly-bare heaps."""
        log, trail = adversarial(Real(), seed, plain_share=plain_share)
        ref_log, ref_trail = adversarial(
            Reference(), seed, plain_share=plain_share
        )
        assert log == ref_log
        assert trail == ref_trail
        assert len(log) > 100  # the workload actually ran

    @pytest.mark.parametrize("seed", range(5))
    def test_scheduler_installed_mid_run_keeps_reference_order(self, seed):
        """Promotion of the pending bare entries, then the controlled
        loop (consulted at every step) over the rest of the workload."""

        def install(api):
            api.engine.install_scheduler(Scheduler())

        log, trail = adversarial(Real(), seed, midway=install)
        assert (log, trail) == adversarial(Reference(), seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_cancel_rearm_churn_fires_in_reference_order(self, seed):
        """Failure-detector-style churn: callbacks keep cancelling live
        timers and re-arming them, so the heap constantly carries a
        large tombstone fraction and compacts mid-drain."""

        def churn(api):
            rng = random.Random(seed)
            log: list[tuple] = []
            pool: list = []

            def tick(n):
                log.append((round(api.now, 12), n))
                for _ in range(min(3, len(pool))):
                    api.cancel(pool.pop(rng.randrange(len(pool))))
                    if n < 3000:
                        pool.append(api.schedule_at(
                            api.now + rng.uniform(0.0, 4 * TICK), tick, n + 7
                        ))

            for i in range(30):
                pool.append(api.schedule_at(rng.uniform(0.0, TICK), tick, i))
            api.run(1.0)
            return log, api.pending()

        assert churn(Real()) == churn(Reference())
        assert len(churn(Reference())[0]) > 200

    def test_exact_tie_fifo_order(self):
        times = [3 * TICK, 0.0, 3 * TICK, TICK, 3 * TICK, 0.0, 7.0, TICK]
        engine = Engine()
        fired = []
        for i, t in enumerate(times):
            if i % 2:
                engine.equeue.push_entry(t, fired.append, ((t, i),))
            else:
                engine.schedule_at(t, fired.append, (t, i))
        engine.run()
        assert fired == sorted((t, i) for i, t in enumerate(times))


class TestEntries:
    def test_fire_and_forget_entry_is_one_bare_list(self):
        engine = Engine()
        entry = engine.equeue.push_entry(0.5, print, ("x",))
        assert type(entry) is list
        assert entry == [0.5, 1, print, ("x",), PENDING]

    def test_handle_is_its_heap_entry(self):
        engine = Engine()
        handle = engine.schedule(0.25, print, "x")
        assert engine.equeue.entries == [handle]
        assert (handle.time, handle.seq, handle.fn, handle.args) == (
            0.25, 1, print, ("x",),
        )
        assert handle.state == PENDING

    def test_handles_hash_by_identity(self):
        # A holder may key dicts and sets on its handles.
        engine = Engine()
        a = engine.schedule_at(0.1, print)
        b = engine.schedule_at(0.1, print)
        assert len({a: 1, b: 2}) == 2 and a != b
        assert {a} == {a} and b not in {a}

    def test_lifecycle_states(self):
        engine = Engine()
        fired = engine.schedule(0.1, lambda: None)
        dropped = engine.schedule(0.2, lambda: None)
        dropped.cancel()
        dropped.cancel()  # idempotent
        assert engine.pending() == 1
        engine.run()
        assert fired.state == FINISHED and fired.finished
        assert dropped.state == CANCELLED and dropped.cancelled
        fired.cancel()  # nothing left to prevent
        assert fired.finished and engine.pending() == 0

    def test_entries_hold_every_stored_entry(self):
        engine = Engine()
        bare = engine.equeue.push_entry(0.2, print, ())
        handle = engine.schedule_at(0.1, print)
        dead = engine.schedule_at(0.3, print)
        dead.cancel()  # a tombstone, still stored
        assert sorted(
            (e[TIME], e[SEQ], id(e)) for e in engine.equeue.entries
        ) == [(0.1, 2, id(handle)), (0.2, 1, id(bare)), (0.3, 3, id(dead))]

    def test_entry_not_yet_due_stays_for_the_next_run(self):
        engine = Engine()
        fired = []
        engine.equeue.push_entry(2.0, fired.append, ("late",))
        assert engine.run(until=1.0) == 1.0
        assert fired == [] and engine.pending() == 1
        engine.run()
        assert fired == ["late"] and engine.now == 2.0


class TestCancellationAndCompaction:
    def test_mass_cancel_compacts_storage(self):
        engine = Engine()
        keep = []
        handles = [
            engine.schedule_at(i * TICK / 3, keep.append, i)
            for i in range(10_000)
        ]
        for h in handles[:9_000]:
            h.cancel()
        assert engine.pending() == 1_000
        # Tombstones must not linger once they dominate: storage shrank
        # well below the 10k scheduled.
        assert len(engine.equeue.entries) < 2_500
        engine.run()
        assert keep == list(range(9_000, 10_000))
        assert engine.pending() == 0

    def test_cancel_from_inside_callback_mid_drain(self):
        engine = Engine()
        fired = []
        handles = []

        def killer():
            fired.append("killer")
            # Cancel enough pending events to cross the compaction
            # threshold while the drain loop is live.
            for h in handles:
                h.cancel()

        engine.schedule_at(0.0, killer)
        handles.extend(
            engine.schedule_at(TICK * (1 + i % 5), fired.append, i)
            for i in range(500)
        )
        survivor = engine.schedule_at(TICK * 10, fired.append, "survivor")
        engine.run()
        assert fired == ["killer", "survivor"]
        assert engine.pending() == 0
        assert not survivor.cancelled and survivor.finished

    def test_pending_is_o1_counter(self):
        # Not a timing assertion: just that pending() answers without
        # touching the heap.
        class Unreadable:
            def __getattr__(self, name):  # pragma: no cover - must not run
                raise AssertionError("pending() read the storage")

        engine = Engine()
        for i in range(100):
            engine.schedule(i * 1e-3, lambda: None)
        engine.equeue.entries = Unreadable()
        assert engine.pending() == 100


class TestInstallScheduler:
    def test_installing_leaves_the_entries_as_they_are(self):
        engine = Engine()
        fired = []
        for i in range(20):
            engine.equeue.push_entry(i * 0.4 * TICK, fired.append, (i,))
        engine.schedule_at(0.2 * TICK, fired.append, "tie-breaker")
        doomed = engine.schedule_at(0.3 * TICK, fired.append, "doomed")
        before = list(engine.equeue.entries)
        engine.install_scheduler(Scheduler())
        entries = engine.equeue.entries
        # The same objects: bare entries stay bare, handles stay handles.
        assert len(entries) == len(before)
        assert all(a is b for a, b in zip(entries, before))
        assert sum(type(e) is EventHandle for e in entries) == 2
        assert engine.pending() == 22
        doomed.cancel()  # a pre-install handle still cancels
        engine.run()
        assert fired == [0, "tie-breaker"] + list(range(1, 20))
        assert engine.pending() == 0

    def test_later_pushes_keep_fifo_ties(self):
        engine = Engine()
        fired = []
        engine.equeue.push_entry(TICK, fired.append, ("pre",))
        engine.install_scheduler(Scheduler())
        engine.schedule_at(TICK, fired.append, "post")  # same-time tie
        engine.run()
        assert fired == ["pre", "post"]

    def test_bounded_defer_rekeys_the_entry_behind_its_new_time(self):
        class DeferFirst(Scheduler):
            defer_delay = 0.5
            done = False

            def decide(self, now, ready):
                if not self.done:
                    self.done = True
                    return ("defer", 0)
                return ("fire", 0)

        engine = Engine()
        engine.install_scheduler(DeferFirst())
        fired = []
        a = engine.schedule_at(0.1, fired.append, "a")
        engine.schedule_at(0.1, fired.append, "b")
        engine.schedule_at(0.6, fired.append, "c")
        engine.equeue.push_entry(0.6, fired.append, ("d",))
        engine.run()
        # Re-keyed (0.6, 5): behind everything already due at 0.6.
        assert fired == ["b", "c", "d", "a"]
        assert (a.time, a.seq) == (0.6, 5) and a.finished

    def test_a_scheduler_free_for_the_whole_run_runs_on_the_drain(self):
        engine = Engine()
        fired = []
        for i in range(30):
            engine.equeue.push_entry((i % 6) * TICK, fired.append, (i,))
        scheduler = DecidesAt()  # no step to decide: one stretch
        engine.install_scheduler(scheduler)
        engine.run()
        assert fired == sorted(range(30), key=lambda i: (i % 6, i))
        assert scheduler.step == 30 and scheduler.consulted == []
