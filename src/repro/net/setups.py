"""Calibrated network presets for the paper's two test beds.

The absolute constants below were calibrated so that the *baseline*
latencies and the *saturation knees* land in the same regime as the
paper's measurements; ``benchmarks/test_figures.py`` asserts each
figure's curve shapes against the paper's claims.  The shapes of the curves do not depend on the exact
constants — they follow from the structure of the model (per-byte wire
time, per-message CPU time, FIFO queueing).

Setup 1 — the paper's 100 Base-TX cluster of Pentium III 766 MHz
machines running Sun JDK 1.4 (Figures 1, 3, 4):

* 100 Mb/s wire: 0.08 us per byte.
* JVM-era per-message processing around a hundred microseconds.

Setup 2 — the paper's Gigabit cluster of Pentium 4 3.2 GHz machines
running JDK 1.5 (Figures 5, 6, 7):

* 1 Gb/s wire: 0.008 us per byte.
* Roughly 4x faster per-message processing.
"""

from __future__ import annotations

from repro.net.models import NetworkParams

#: Pentium III / 100 Mb/s Ethernet / JDK 1.4 (paper Figures 1, 3, 4).
SETUP_1 = NetworkParams(
    send_overhead=150e-6,
    recv_overhead=150e-6,
    cpu_per_byte=0.03e-6,
    wire_overhead=18e-6,
    wire_per_byte=0.08e-6,
    # Per-identifier rcv() probe cost.  Calibrated so the indirect-vs-
    # faulty gap grows with throughput as in Figure 3 (asserted by the
    # Figure 3 test in benchmarks/test_figures.py).
    rcv_lookup_cost=25e-6,
)

#: Pentium 4 / 1 Gb/s Ethernet / JDK 1.5 (paper Figures 5, 6, 7).
SETUP_2 = NetworkParams(
    send_overhead=60e-6,
    recv_overhead=60e-6,
    cpu_per_byte=0.012e-6,
    wire_overhead=6e-6,
    wire_per_byte=0.008e-6,
    rcv_lookup_cost=1.5e-6,
)
