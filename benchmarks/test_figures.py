"""The paper's Figures 1–7 (§4), regenerated at quick resolution.

The asserted content is the *shape* of the curves — who wins, where,
by roughly how much — with one test per figure quoting the paper's
claim.  ``python -m repro.harness --full`` runs the paper's full grids.

One session fixture regenerates every measured figure through a single
:func:`~repro.harness.figures.run_figures` call.  Cache reads are
disabled (the figures must be regenerated, not read from disk), writes
land in a throwaway directory (never the user's shared cache), and
execution is serial so wall times are comparable across machines with
different core counts.  ``run_suite``'s within-call dedup still
applies: points shared between panels and figures (Figure 7's URB
variant, Figures 5–7's common grid points) are simulated once, because
that is the pipeline's real regeneration cost.
"""

import pytest

from repro.harness.figures import FIGURES, curves, figure2_table, run_figures


@pytest.fixture(scope="session")
def figures(tmp_path_factory):
    """``{fig_id: {panel name: {label: {x: mean latency ms}}}}``."""
    regenerated = run_figures(
        list(FIGURES),
        processes=1,
        cache_dir=tmp_path_factory.mktemp("figure-cache"),
        use_cache=False,
    )
    return {
        fig_id: {
            name: curves(panel, FIGURES[fig_id].x)
            for name, panel in panels.items()
        }
        for fig_id, panels in regenerated.items()
    }


def assert_dominates(slower, faster, at, margin=1.0):
    """Assert ``slower`` has higher latency than ``faster`` at each x."""
    for x in at:
        assert slower[x] > faster[x] * margin, (
            f"expected {slower[x]:.3f} > {faster[x]:.3f} (margin {margin}) at x={x}"
        )


def test_figure1_latency_vs_payload(figures):
    """Consensus on messages vs indirect consensus, latency vs payload.

    Paper's claim: "as the size of the messages increases, the latency
    of consensus on message identifiers is lower than the latency when
    using entire messages.  This result becomes clearer as the
    throughput ... increases."  Indirect stays nearly flat;
    consensus-on-messages blows up.
    """
    low = figures["1"]["100 msgs/s"]
    high = figures["1"]["800 msgs/s"]

    for panel in (low, high):
        messages = panel["Consensus"]
        indirect = panel["Indirect consensus"]
        # At tiny payloads the two are nearly identical...
        assert abs(messages[1] - indirect[1]) / indirect[1] < 0.25
        # ...and consensus-on-messages loses clearly at large payloads.
        assert_dominates(messages, indirect, at=[2500, 5000], margin=1.2)

    # The gap widens with throughput (paper: "clearer as the throughput
    # ... increases").
    gap_low = low["Consensus"][5000] / low["Indirect consensus"][5000]
    gap_high = high["Consensus"][5000] / high["Indirect consensus"][5000]
    assert gap_high > gap_low

    # Indirect consensus latency is decoupled from payload: growth from
    # 1 B to 5000 B stays within one order of magnitude at low rate.
    assert low["Indirect consensus"][5000] < low["Indirect consensus"][1] * 10


def test_figure2_quorum_arithmetic():
    """Quorum intersection arithmetic (n=7, f=2 illustration).

    Not a measured figure — the paper uses it to justify f < n/3 for
    the indirect MR algorithm.  The table covers a wide range of group
    sizes and must satisfy the inequality chain.
    """
    rows = figure2_table().to_rows()
    by_n = {row["n"]: row for row in rows}

    # The paper's example: n=7, two 5-quorums overlap in >= 3 processes.
    assert by_n[7]["phase2 quorum ⌈(2n+1)/3⌉"] == 5
    assert by_n[7]["min overlap (n-2f)"] == 3
    assert by_n[7]["f_max (indirect MR)"] == 2

    for row in rows:
        n, f = row["n"], row["f_max (indirect MR)"]
        # n - 2f >= f + 1 at the declared resilience ...
        assert row["min overlap (n-2f)"] >= f + 1
        # ... and the adaptation never tolerates more than the original.
        assert f <= row["f_max (original MR)"]
        # The adoption threshold is enough to include a correct process.
        assert row["adoption threshold ⌈(n+1)/3⌉"] >= f + 1


def test_figure3_latency_vs_throughput(figures):
    """Indirect vs (faulty) consensus on ids, latency vs throughput.

    Paper's claims: the overhead of indirect consensus over the faulty
    shortcut *increases with throughput* and is larger at n=5 than n=3,
    but stays small relative to the absolute latency ("the price to pay
    for a correct implementation").
    """
    n3 = figures["3"]["n = 3 processes"]
    n5 = figures["3"]["n = 5 processes"]

    for panel in (n3, n5):
        indirect = panel["Indirect consensus"]
        faulty = panel["(Faulty) Consensus"]
        # Latency grows with throughput for both variants (queueing).
        assert indirect[800.0] > indirect[100.0]
        assert faulty[800.0] > faulty[100.0]
        # The overhead of correctness is bounded: indirect is never
        # more than 25% above the unsafe shortcut.
        for x in (100.0, 400.0, 800.0):
            assert indirect[x] <= faulty[x] * 1.25

    # Larger groups are slower across the board (paper: n=5 curves sit
    # far above n=3; our simulator reproduces the separation, with a
    # smaller blow-up factor than the paper's testbed).
    assert n5["Indirect consensus"][800.0] > n3["Indirect consensus"][800.0] * 1.5
    assert n5["Indirect consensus"][100.0] > n3["Indirect consensus"][100.0] * 1.5

    # The indirect-vs-faulty gap grows with throughput at n=3
    # (the paper's "overhead increases as the throughput increases").
    gap_low = n3["Indirect consensus"][100.0] - n3["(Faulty) Consensus"][100.0]
    gap_high = n3["Indirect consensus"][800.0] - n3["(Faulty) Consensus"][800.0]
    assert gap_high > gap_low


def test_figure4_latency_vs_payload_n5(figures):
    """Indirect vs faulty consensus at n=5, latency vs payload.

    Paper's claims: "the overhead ratio remains stable as the size of
    the messages varies"; at 10 msg/s the overhead is "negligible for
    all message sizes"; both variants' latency rises with payload
    because of data diffusion, not because of consensus (which only
    handles ids).
    """
    panels = {
        rate: figures["4"][f"{rate} msgs/s"] for rate in (10, 100, 400, 800)
    }

    # Negligible overhead at 10 msg/s: under 5% at every payload.
    calm = panels[10]
    for x in (1, 2500, 5000):
        ratio = calm["Indirect consensus"][x] / calm["(Faulty) Consensus"][x]
        assert 0.95 < ratio < 1.05

    # Overhead ratio stays roughly stable across payloads at 400 msg/s
    # (both algorithms order ids; payload only affects diffusion).
    busy = panels[400]
    ratios = [
        busy["Indirect consensus"][x] / busy["(Faulty) Consensus"][x]
        for x in (1, 2500, 5000)
    ]
    assert max(ratios) - min(ratios) < 0.25

    # Latency rises with payload for both variants at every rate.
    for rate, panel in panels.items():
        for label in panel:
            assert panel[label][5000] > panel[label][1]

    # Higher throughput means higher latency at fixed payload.
    assert panels[800]["Indirect consensus"][2500] > panels[10]["Indirect consensus"][2500]


IND_N2 = "Indirect consensus w/ rbcast O(n^2)"
IND_N1 = "Indirect consensus w/ rbcast O(n)"
URB = "Consensus w/ uniform rbcast"


def test_figure5_urb_vs_indirect_flood_rb(figures):
    """Indirect + RB O(n^2) vs URB + consensus on ids (Setup 2).

    Paper's claim: with an O(n^2)-message reliable broadcast, "indirect
    consensus and reliable broadcast achieve slightly lower latencies
    than consensus on message identifiers and uniform reliable
    broadcast" — a small but consistent edge attributed to URB's extra
    communication step.
    """
    for rate in (500, 1500, 2000):
        panel = figures["5"][f"{rate} msgs/s"]
        for x in (1, 1250, 2500):
            # Indirect + RB wins...
            assert panel[IND_N2][x] < panel[URB][x]
            # ...but only slightly (both ship O(n^2) data): within 35%.
            assert panel[URB][x] < panel[IND_N2][x] * 1.35

    # Latency grows with payload and with throughput for both stacks.
    calm = figures["5"]["500 msgs/s"]
    busy = figures["5"]["2000 msgs/s"]
    for label in (IND_N2, URB):
        assert calm[label][2500] > calm[label][1]
        assert busy[label][1] > calm[label][1]


def test_figure6_urb_vs_indirect_sender_rb(figures):
    """Indirect + RB O(n) vs URB + consensus on ids (Setup 2).

    Paper's claim: "if reliable broadcast only needs O(n) messages in
    good runs ..., the performance of indirect consensus is clearly
    better than if consensus and uniform reliable broadcast are used" —
    the gap is much wider than Figure 5's.
    """
    gaps = {}
    for rate in (500, 1500, 2000):
        panel = figures["6"][f"{rate} msgs/s"]
        # A clear win at every point: URB at least 25% slower.
        assert_dominates(panel[URB], panel[IND_N1], at=[1, 1250, 2500], margin=1.25)
        gaps[rate] = panel[URB][2500] / panel[IND_N1][2500]

    # And the advantage holds (indeed tends to grow) under load.
    assert gaps[2000] >= 1.25


def test_figure7_latency_vs_throughput(figures):
    """Latency vs throughput (1 B payload, Setup 2), both RB variants.

    Paper's claims: atomic broadcast with URB "degrades significantly
    as the throughput increases"; indirect + RB O(n^2) "behaves
    similarly (although slightly better)"; indirect + RB O(n) "is much
    less affected by the throughput".
    """
    flood_panel = figures["7"]["RB in O(n^2) messages"]
    sender_panel = figures["7"]["RB in O(n) messages"]

    # URB degrades significantly with throughput.
    assert flood_panel[URB][2000.0] > flood_panel[URB][500.0] * 2

    # Indirect + O(n^2) RB: similar shape, slightly better everywhere.
    for x in (500.0, 1250.0, 2000.0):
        assert flood_panel[IND_N2][x] < flood_panel[URB][x]

    # Indirect + O(n) RB: clearly better and flatter.
    for x in (500.0, 1250.0, 2000.0):
        assert sender_panel[IND_N1][x] < sender_panel[URB][x] / 1.3
    growth_urb = sender_panel[URB][2000.0] / sender_panel[URB][500.0]
    growth_ind = sender_panel[IND_N1][2000.0] / sender_panel[IND_N1][500.0]
    assert growth_ind < growth_urb
