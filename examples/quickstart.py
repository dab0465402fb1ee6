#!/usr/bin/env python
"""Quickstart: atomic broadcast with indirect consensus in 40 lines.

Builds the paper's recommended stack — reliable broadcast for diffusion,
Chandra-Toueg *indirect* consensus (Algorithm 2) for ordering — on a
simulated 3-process LAN, broadcasts a handful of messages from different
processes, and shows that every process delivers them in the same total
order.

Run:  python examples/quickstart.py
"""

from repro import StackSpec, build_system, check_abcast, make_payload


def main() -> None:
    # 1. Describe the stack.  n=3 processes; "indirect" is Algorithm 1
    #    of the paper; "ct-indirect" is Algorithm 2 (the ◇S indirect
    #    consensus); diffusion is the O(n) reliable broadcast.  The
    #    names resolve through the layer registry, so a typo fails
    #    right here with a did-you-mean suggestion (run
    #    `python -m repro.harness --list-variants` for the catalog).
    #    The `with` block closes the system when it ends, so the
    #    finished run is freed at once (see System.close).
    spec = StackSpec(n=3, abcast="indirect", consensus="ct-indirect", rb="sender")
    with build_system(spec) as system:
        # 2. Subscribe to deliveries on one process, like an application would.
        log = []
        system.abcasts[1].on_adeliver(
            lambda m: log.append((m.mid, m.payload.content))
        )

        # 3. Broadcast from several processes at slightly different times.
        sends = [
            (1, 0.000, "transfer $10 A->B"),
            (2, 0.001, "transfer $7  B->C"),
            (3, 0.0012, "transfer $3  C->A"),
            (1, 0.004, "audit log entry"),
        ]
        for pid, at, text in sends:
            system.processes[pid].schedule_at(
                at,
                lambda _pid=pid, _text=text: system.abcasts[_pid].abroadcast(
                    make_payload(len(_text), content=_text)
                ),
            )

        # 4. Run the simulation until everyone delivered everything.
        ok = system.run_until_delivered(count=len(sends), timeout=2.0)
        assert ok, "delivery should complete well within 2 simulated seconds"

    # 5. Every process delivered the same sequence (checked formally
    #    too).  The trace, the config and the clock outlive the close.
    check_abcast(system.trace, system.config)
    print(f"All {spec.n} processes delivered, in this order:")
    for mid, content in log:
        print(f"  {mid}  {content!r}")
    for pid in system.config.processes:
        seq = system.trace.adelivery_sequence(pid)
        assert seq == [mid for mid, _ in log]
    print(f"\nTotal order verified across all processes "
          f"({system.engine.now * 1e3:.2f} ms of simulated time).")


if __name__ == "__main__":
    main()
