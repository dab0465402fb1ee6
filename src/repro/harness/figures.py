"""The paper's evaluation figures (§4), declared as data.

:data:`FIGURES` maps each measured figure to its panels; a panel names
the legend variants (labels as in the paper), group size, network
setup and sweep axes of one plot, each axis at *quick* resolution
(3 points, short windows: what the pytest benchmarks run) and at
*full* resolution (the paper's grid: ``python -m repro.harness
--full``).  :func:`run_figures` runs every panel of the selected
figures through **one** :func:`~repro.harness.runner.run_suite` call —
points shared between figures are simulated once, and a re-run only
computes points missing from the result cache — and returns each panel
as a :class:`~repro.harness.results.ResultSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.consensus.quorums import (
    adoption_threshold,
    intersection_lower_bound,
    max_resilience_for_intersection,
    phase2_quorum,
)
from repro.core.exceptions import ConfigurationError
from repro.harness.results import ResultSet
from repro.harness.runner import run_suite
from repro.harness.suite import SweepSpec
from repro.metrics.probes import DEFAULT_PROBES
from repro.net.models import NetworkParams
from repro.net.setups import SETUP_1, SETUP_2
from repro.stack import layers
from repro.stack.builder import StackSpec

#: Figure-legend label -> (abcast, consensus, rb) registry names.
#: Figures 1, 3 and 4 use the O(n) reliable broadcast for diffusion:
#: at their offered loads (up to 800 msg/s x 5000 B on 100 Mb/s
#: Ethernet) an O(n^2) flood would exceed the wire capacity outright,
#: which the paper's measured latencies show the authors did not pay.
_LEGEND = {
    "Consensus": ("on-messages", "ct", "sender"),
    "(Faulty) Consensus": ("faulty-ids", "ct", "sender"),
    "Indirect consensus": ("indirect", "ct-indirect", "sender"),
    "Indirect consensus w/ rbcast O(n^2)": ("indirect", "ct-indirect", "flood"),
    "Indirect consensus w/ rbcast O(n)": ("indirect", "ct-indirect", "sender"),
    "Consensus w/ uniform rbcast": ("urb-ids", "ct", "flood"),
}

# Every legend row must name registered variants; checked against the
# registry at import, so an unregistered name fails here with the
# registry's suggestion message, not mid-sweep.
for _abcast, _consensus, _rb in _LEGEND.values():
    layers.ABCASTS.get(_abcast)
    layers.CONSENSUS.get(_consensus)
    layers.BROADCASTS.get(_rb)


def _stack(variant: str, n: int, params: NetworkParams, seed: int) -> StackSpec:
    # StackSpec resolves the legend's layer names through the registry
    # (repro.stack.layers): a label naming an unregistered variant
    # fails at construction with the registry's suggestion message.
    abcast, consensus, rb = _LEGEND[variant]
    return StackSpec(
        n=n, params=params, network="contention", fd="oracle", seed=seed,
        abcast=abcast, consensus=consensus, rb=rb,
    )


class Grid(NamedTuple):
    """One sweep axis at quick and at full resolution."""

    quick: tuple
    full: tuple


@dataclass(frozen=True)
class Panel:
    """One plot of a figure: legend variants over a sweep grid."""

    name: str
    sweep: str
    variants: tuple[str, ...]
    n: int
    params: NetworkParams
    throughputs: Grid
    payloads: Grid


@dataclass(frozen=True)
class Figure:
    """One measured figure: its title, x axis and panels.

    ``x`` is the :class:`~repro.harness.results.ResultSet` column the
    panels plot latency against (``"payload"`` or ``"throughput"``).
    """

    title: str
    xlabel: str
    x: str
    panels: tuple[Panel, ...]


def _fixed(value) -> Grid:
    return Grid((value,), (value,))


def _rate_panels(fig: str, rates: tuple[float, ...], variants: tuple[str, ...],
                 n: int, params: NetworkParams,
                 payloads: Grid) -> tuple[Panel, ...]:
    """One latency-vs-payload panel per offered rate."""
    return tuple(
        Panel(f"{rate:.0f} msgs/s", f"{fig}/{rate:.0f}", variants, n, params,
              _fixed(rate), payloads)
        for rate in rates
    )


_PAYLOADS_SETUP_1 = Grid((1, 2500, 5000), (1, 1000, 2000, 3000, 4000, 5000))
_PAYLOADS_SETUP_2 = Grid((1, 1250, 2500), (1, 500, 1000, 1500, 2000, 2500))
_INDIRECT_VS_FAULTY = ("Indirect consensus", "(Faulty) Consensus")
_FLOOD_VS_URB = ("Indirect consensus w/ rbcast O(n^2)",
                 "Consensus w/ uniform rbcast")
_SENDER_VS_URB = ("Indirect consensus w/ rbcast O(n)",
                  "Consensus w/ uniform rbcast")
_FIG7_RATES = Grid((500.0, 1250.0, 2000.0),
                   (500.0, 750.0, 1000.0, 1250.0, 1500.0, 1750.0, 2000.0))
_PAYLOAD_AXIS = "size of messages [bytes]"
_RATE_AXIS = "throughput [msgs/s]"

#: Every measured figure of §4, by figure number, in paper order.
FIGURES: dict[str, Figure] = {
    "1": Figure(
        "Latency vs message size, n=3 (consensus on messages vs indirect)",
        _PAYLOAD_AXIS, "payload",
        _rate_panels("fig1", (100.0, 800.0),
                     ("Indirect consensus", "Consensus"), 3, SETUP_1,
                     _PAYLOADS_SETUP_1),
    ),
    "3": Figure(
        "Latency vs throughput, 1 B payload (indirect vs faulty consensus)",
        _RATE_AXIS, "throughput",
        tuple(
            Panel(f"n = {n} processes", f"fig3/n{n}", _INDIRECT_VS_FAULTY,
                  n, SETUP_1,
                  Grid((100.0, 400.0, 800.0),
                       (25.0, 50.0, 100.0, 200.0, 400.0, 600.0, 800.0)),
                  _fixed(1))
            for n in (3, 5)
        ),
    ),
    "4": Figure(
        "Latency vs payload, n=5 (indirect vs faulty consensus)",
        _PAYLOAD_AXIS, "payload",
        _rate_panels("fig4", (10.0, 100.0, 400.0, 800.0),
                     _INDIRECT_VS_FAULTY, 5, SETUP_1, _PAYLOADS_SETUP_1),
    ),
    "5": Figure(
        "Latency vs payload, n=3, Setup 2 (RB uses O(n^2) messages)",
        _PAYLOAD_AXIS, "payload",
        _rate_panels("fig5", (500.0, 1500.0, 2000.0), _FLOOD_VS_URB, 3,
                     SETUP_2, _PAYLOADS_SETUP_2),
    ),
    "6": Figure(
        "Latency vs payload, n=3, Setup 2 (RB uses O(n) messages)",
        _PAYLOAD_AXIS, "payload",
        _rate_panels("fig6", (500.0, 1500.0, 2000.0), _SENDER_VS_URB, 3,
                     SETUP_2, _PAYLOADS_SETUP_2),
    ),
    "7": Figure(
        "Latency vs throughput, n=3, Setup 2, 1 B payload",
        _RATE_AXIS, "throughput",
        (
            Panel("RB in O(n^2) messages", "fig7/flood", _FLOOD_VS_URB, 3,
                  SETUP_2, _FIG7_RATES, _fixed(1)),
            Panel("RB in O(n) messages", "fig7/sender", _SENDER_VS_URB, 3,
                  SETUP_2, _FIG7_RATES, _fixed(1)),
        ),
    ),
}


def run_figures(
    fig_ids: Iterable[str],
    quick: bool = True,
    *,
    trace_mode: str = "full",
    metrics: tuple[str, ...] = DEFAULT_PROBES,
    processes: int | None = None,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
) -> dict[str, dict[str, ResultSet]]:
    """Run every panel of the given :data:`FIGURES` in one ``run_suite``.

    ``trace_mode`` and ``metrics`` apply to every point (``metrics``
    must include ``"latency"``, which every figure plots); the last
    three arguments are passed to
    :func:`~repro.harness.runner.run_suite`.  Returns ``{fig_id:
    {panel name: ResultSet}}`` in declaration order.
    """
    if "latency" not in metrics:
        raise ConfigurationError(
            "metrics must include 'latency': every figure plots delivery "
            f"latency (got {tuple(metrics)!r})"
        )
    sweeps = [
        (fig_id, panel.name, SweepSpec(
            name=panel.sweep,
            variants=tuple(
                (variant, _stack(variant, panel.n, panel.params, seed=0))
                for variant in panel.variants
            ),
            throughputs=(panel.throughputs.quick if quick
                         else panel.throughputs.full),
            payloads=panel.payloads.quick if quick else panel.payloads.full,
            seeds=(0,),
            target_messages=120 if quick else 600,
            warmup=0.1,
            drain=0.5 if quick else 1.0,
            trace_mode=trace_mode,
            metrics=metrics,
        ))
        for fig_id in fig_ids
        for panel in FIGURES[fig_id].panels
    ]
    suite = run_suite(
        [sweep for _, _, sweep in sweeps],
        processes=processes,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
    results = iter(suite.results)  # sliced back by position
    out: dict[str, dict[str, ResultSet]] = {}
    for fig_id, name, sweep in sweeps:
        out.setdefault(fig_id, {})[name] = ResultSet.from_results(
            islice(results, len(sweep))
        )
    return out


def curves(panel: ResultSet, x: str) -> dict[str, dict[float, float]]:
    """A panel's curves: ``{label: {x: mean latency ms}}``."""
    return {
        label: dict(zip(curve.column(x), curve.column("latency.mean_ms")))
        for (label,), curve in panel.group_by("label").items()
    }


def figure2_table() -> ResultSet:
    """The quorum-intersection arithmetic behind Figure 2, as a table.

    For each group size: the indirect-MR Phase-2 quorum, the worst-case
    overlap of two such quorums, the adoption threshold, and the
    resulting maximum resilience — including the paper's illustration
    n=7, f=2 where two 5-element quorums share at least 3 processes.
    """
    ns = list(range(2, 13))
    fs = [max_resilience_for_intersection(n) for n in ns]
    return ResultSet({
        "n": ns,
        "f_max (indirect MR)": fs,
        "phase2 quorum ⌈(2n+1)/3⌉": [phase2_quorum(n) for n in ns],
        "min overlap (n-2f)": [
            intersection_lower_bound(n, f) for n, f in zip(ns, fs)
        ],
        "adoption threshold ⌈(n+1)/3⌉": [adoption_threshold(n) for n in ns],
        "f_max (original MR)": [(n - 1) // 2 for n in ns],
    })
