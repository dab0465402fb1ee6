#!/usr/bin/env python
"""Bug hunt: rediscover the Section 2.2 violation by systematic search.

The paper's Section 2.2 shows why running *unmodified* consensus on
message identifiers is unsafe: consensus can order ``id(m)`` while
every copy of ``m`` is still inside the sender's socket buffers; if
the sender then crashes, the identifier is stuck in the total order
forever and every correct process blocks at the adeliver gate.

``tests/scenarios/test_validity_violation.py`` reproduces that
execution from a hand-crafted crash schedule and delay rules.  This
example produces the same class of counterexample with *no staging at
all*: bounded schedule exploration (``repro.explore``) searches
delivery interleavings, data-frame delays and crash placements of the
faulty stack until a property violation falls out, delta-debugs the
schedule down to a minimal deviation list, and replays it into a full
trace for inspection.

Run:  python examples/explore_bug_hunt.py
"""

from repro.explore import explore, explore_spec, replay


def main() -> None:
    # 1. The stack under test: reliable broadcast + unmodified
    #    Chandra-Toueg consensus on identifier sets — the unsafe
    #    baseline real group-communication systems shipped.  The
    #    preset runs it on a constant-latency network with
    #    drop_in_flight_on_crash=True (a machine that dies loses its
    #    socket buffers), two senders, one tolerated crash.
    spec = explore_spec("faulty")
    print(f"exploring {spec.stack.abcast}+{spec.stack.consensus} "
          f"(n={spec.stack.n}, strategy={spec.strategy}, "
          f"budget={spec.budget} schedules)")

    # 2. Search.  The delay-bounded strategy tries the default
    #    schedule, then every 1-deviation schedule, then 2, ... until
    #    a checker fires; every violation is shrunk and replay-verified
    #    before it is reported.
    outcome = explore(spec)
    print(outcome.summary())
    if outcome.ok:
        raise SystemExit(
            "no violation found — did someone fix the faulty stack?"
        )

    violation = outcome.violations[0]
    print(f"\nproperty  : {violation.prop}")
    print(f"repro     : {violation.repro!r}")
    print(f"detail    : {violation.detail}")

    # 3. Replay the shrunk schedule into a full trace.  Everything the
    #    library knows about traces works on the counterexample: the
    #    checkers re-flag it, and the event record shows the mechanism.
    system, record = replay(spec, violation.repro)
    print(f"\nreplay    : {record.events} events, "
          f"{'drained' if record.drained else 'horizon-bounded'}, "
          f"verdict {record.violation.prop}")

    first = system.trace.first_decision(1)
    lost = sorted(
        mid for mid in first.value
        if system.processes[mid.origin].crashed
    )
    print(f"decided   : instance 1 = {sorted(first.value)} "
          f"at t={first.time * 1000:.2f}ms")
    print(f"lost ids  : {lost} (their only copies died with the sender)")
    for pid in sorted(system.processes):
        crashed = system.processes[pid].crashed
        seq = system.trace.adelivery_sequence(pid)
        if not seq:
            seq = ("nothing (it crashed)" if crashed
                   else "nothing — blocked behind the lost identifier")
        print(f"  p{pid} ({'crashed' if crashed else 'correct'}) "
              f"adelivered {seq}")

    # 4. The same bounded search leaves the paper's correct stack
    #    unscathed — the rcv gate refuses to order an identifier nobody
    #    can back.
    correct = explore_spec("indirect", budget=150, stop_after=0)
    print(f"\ncontrol   : {explore(correct).summary()}")


if __name__ == "__main__":
    main()
