"""Per-figure experiment definitions.

Each ``figureN()`` function reproduces the corresponding figure of the
paper's evaluation: it declares the same variants over the same
parameter sweeps (payload sizes, throughputs, group sizes, network
setups) as one :class:`~repro.harness.suite.SweepSpec` per panel, and
executes every panel of the figure through one
:func:`~repro.harness.runner.run_suite` call — so all points of a
figure run across the process pool together, and a re-run only computes
points missing from the result cache.

Two resolutions:

* ``quick=True`` (default) — 3 points per sweep, short measurement
  windows; minutes for the whole set.  This is what the pytest
  benchmarks run.
* ``quick=False`` — the paper's full sweep grid with longer windows;
  what ``python -m repro.harness --full`` uses to regenerate
  EXPERIMENTS.md numbers.

The variant labels match the figure legends in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.consensus.quorums import (
    adoption_threshold,
    intersection_lower_bound,
    max_resilience_for_intersection,
    phase2_quorum,
)
from repro.core.exceptions import ConfigurationError
from repro.harness.experiment import ExperimentResult
from repro.harness.results import ResultSet
from repro.harness.runner import run_suite
from repro.harness.suite import SweepSpec
from repro.metrics.probes import DEFAULT_PROBES
from repro.net.models import NetworkParams
from repro.net.setups import SETUP_1, SETUP_2
from repro.stack import layers
from repro.stack.builder import StackSpec


@dataclass(frozen=True)
class SuiteOptions:
    """Execution knobs threaded from the CLI/benchmarks into figures.

    Attributes:
        processes: Pool size for :func:`run_suite` (``1`` = serial).
        cache_dir: Result cache directory (``None`` = default).
        use_cache: Serve previously computed points from disk.
        trace_mode: ``"full"`` safety-checks every point; ``"metrics"``
            retains no per-event trace (no checks) — markedly lighter
            on long full-resolution sweeps.  Probe output is identical
            either way.
        metrics: Metric-probe names measured at every point (``None``
            = the registry defaults) — the CLI's ``--metrics`` flag.
    """

    processes: int | None = None
    cache_dir: Path | str | None = None
    use_cache: bool = True
    trace_mode: str = "full"
    metrics: tuple[str, ...] | None = None


_DEFAULT_OPTIONS = SuiteOptions()


@dataclass
class Series:
    """One plotted line: (x, mean latency ms) points plus raw results."""

    label: str
    points: list[tuple[float, float]] = field(default_factory=list)
    results: list[ExperimentResult] = field(default_factory=list)

    def add(self, x: float, result: ExperimentResult) -> None:
        self.points.append((x, result.metric("latency")["mean_ms"]))
        self.results.append(result)


@dataclass
class FigureData:
    """A reproduced figure: one or more panels of series.

    ``resultset`` carries every point of every panel as a columnar
    :class:`~repro.harness.results.ResultSet` — the exportable surface
    behind the plotted series (the CLI's ``--format csv/json``).
    """

    fig_id: str
    title: str
    xlabel: str
    panels: dict[str, list[Series]] = field(default_factory=dict)
    resultset: ResultSet | None = None


# ----------------------------------------------------------------------
# Variant -> StackSpec factories (labels as in the paper's legends)
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# SweepSpec declaration and execution of a figure's panels
# ----------------------------------------------------------------------


def _panel_sweep(
    name: str,
    variants: list[str],
    n: int,
    params: NetworkParams,
    throughputs: list[float],
    payloads: list[int],
    quick: bool,
    options: SuiteOptions,
) -> SweepSpec:
    """One panel of one figure, as a declarative sweep grid."""
    return SweepSpec(
        name=name,
        variants=tuple(
            (variant, _stack(variant, n, params, seed=0))
            for variant in variants
        ),
        throughputs=tuple(throughputs),
        payloads=tuple(payloads),
        seeds=(0,),
        target_messages=120 if quick else 600,
        warmup=0.1,
        drain=0.5 if quick else 1.0,
        trace_mode=options.trace_mode,
        metrics=options.metrics or DEFAULT_PROBES,
    )


def _run_panels(
    fig: FigureData,
    panels: list[tuple[str, SweepSpec, str]],
    options: SuiteOptions,
) -> FigureData:
    """Execute every panel's sweep through one ``run_suite`` call.

    ``panels`` entries are ``(panel_name, sweep, x_axis)`` with
    ``x_axis`` in ``{"payload", "throughput"}``.  All points of all
    panels go through the pool together; results are sliced back per
    panel and assembled into :class:`Series` in declaration order.
    """
    specs = []
    slices: list[tuple[str, SweepSpec, str, slice]] = []
    for panel_name, sweep, x_axis in panels:
        if "latency" not in sweep.metrics:
            raise ConfigurationError(
                f"panel {panel_name!r}: figures plot latency, so the "
                "sweep's metrics axis must include the 'latency' probe "
                f"(got {sweep.metrics!r})"
            )
        expanded = sweep.experiments()
        slices.append(
            (panel_name, sweep, x_axis,
             slice(len(specs), len(specs) + len(expanded)))
        )
        specs.extend(expanded)
    suite = run_suite(
        specs,
        processes=options.processes,
        cache_dir=options.cache_dir,
        use_cache=options.use_cache,
    )
    assigned = 0
    for panel_name, sweep, x_axis, where in slices:
        # Each (variant, fault set, topology) combo is one curve,
        # selected off the panel's columnar ResultSet by the ``label``
        # the sweep stamped on its points; seeds × throughputs ×
        # payloads stay in expansion order within the curve.
        panel_rs = ResultSet.from_results(suite.results[where])
        series: list[Series] = []
        for label, _stack_spec in sweep.variants:
            for fault_label, _rules in sweep.fault_sets:
                for topo_label, _topology in sweep.topologies:
                    curve_label = sweep.point_label(
                        label, fault_label, topo_label
                    )
                    curve_rs = panel_rs.where(label=curve_label)
                    curve = Series(label=curve_label)
                    for x, result in zip(
                        curve_rs.column(x_axis), curve_rs.results
                    ):
                        curve.add(x, result)
                    assigned += len(curve_rs)
                    series.append(curve)
        if sum(len(s.points) for s in series) != len(panel_rs):
            raise RuntimeError(
                f"panel {panel_name!r}: curve labels did not cover "
                f"every suite point"
            )
        fig.panels[panel_name] = series
    if assigned != len(suite.results):
        raise RuntimeError(
            f"{len(suite.results) - assigned} suite points were not "
            "assigned to any panel"
        )
    fig.resultset = ResultSet.from_suite(suite)
    return fig


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------


def figure1(
    quick: bool = True, options: SuiteOptions = _DEFAULT_OPTIONS
) -> FigureData:
    """Latency vs payload, n=3: consensus on messages vs indirect (Setup 1)."""
    payloads = [1, 2500, 5000] if quick else [1, 1000, 2000, 3000, 4000, 5000]
    variants = ["Indirect consensus", "Consensus"]
    fig = FigureData(
        fig_id="fig1",
        title="Latency vs message size, n=3 (consensus on messages vs indirect)",
        xlabel="size of messages [bytes]",
    )
    panels = []
    for throughput in (100.0, 800.0):
        panels.append((
            f"{throughput:.0f} msgs/s",
            _panel_sweep(f"fig1/{throughput:.0f}", variants, 3, SETUP_1,
                         [throughput], payloads, quick, options),
            "payload",
        ))
    return _run_panels(fig, panels, options)


def figure2_table() -> list[dict]:
    """The quorum-intersection arithmetic behind Figure 2, as a table.

    For each group size: the indirect-MR Phase-2 quorum, the worst-case
    overlap of two such quorums, the adoption threshold, and the
    resulting maximum resilience — including the paper's illustration
    n=7, f=2 where two 5-element quorums share at least 3 processes.
    """
    rows = []
    for n in range(2, 13):
        f = max_resilience_for_intersection(n)
        quorum = phase2_quorum(n)
        rows.append(
            {
                "n": n,
                "f_max (indirect MR)": f,
                "phase2 quorum ⌈(2n+1)/3⌉": quorum,
                "min overlap (n-2f)": intersection_lower_bound(n, f),
                "adoption threshold ⌈(n+1)/3⌉": adoption_threshold(n),
                "f_max (original MR)": (n - 1) // 2,
            }
        )
    return rows


def figure3(
    quick: bool = True, options: SuiteOptions = _DEFAULT_OPTIONS
) -> FigureData:
    """Latency vs throughput, 1-byte payload: indirect vs faulty (Setup 1)."""
    throughputs = [100.0, 400.0, 800.0] if quick else [
        25.0, 50.0, 100.0, 200.0, 400.0, 600.0, 800.0,
    ]
    variants = ["Indirect consensus", "(Faulty) Consensus"]
    fig = FigureData(
        fig_id="fig3",
        title="Latency vs throughput, 1 B payload (indirect vs faulty consensus)",
        xlabel="throughput [msgs/s]",
    )
    panels = []
    for n in (3, 5):
        panels.append((
            f"n = {n} processes",
            _panel_sweep(f"fig3/n{n}", variants, n, SETUP_1,
                         throughputs, [1], quick, options),
            "throughput",
        ))
    return _run_panels(fig, panels, options)


def figure4(
    quick: bool = True, options: SuiteOptions = _DEFAULT_OPTIONS
) -> FigureData:
    """Latency vs payload, n=5: indirect vs faulty at four throughputs."""
    payloads = [1, 2500, 5000] if quick else [1, 1000, 2000, 3000, 4000, 5000]
    variants = ["Indirect consensus", "(Faulty) Consensus"]
    fig = FigureData(
        fig_id="fig4",
        title="Latency vs payload, n=5 (indirect vs faulty consensus)",
        xlabel="size of messages [bytes]",
    )
    panels = []
    for throughput in (10.0, 100.0, 400.0, 800.0):
        panels.append((
            f"{throughput:.0f} msgs/s",
            _panel_sweep(f"fig4/{throughput:.0f}", variants, 5, SETUP_1,
                         [throughput], payloads, quick, options),
            "payload",
        ))
    return _run_panels(fig, panels, options)


def figure5(
    quick: bool = True, options: SuiteOptions = _DEFAULT_OPTIONS
) -> FigureData:
    """Latency vs payload, n=3, Setup 2: indirect+RB O(n^2) vs URB+consensus."""
    payloads = [1, 1250, 2500] if quick else [1, 500, 1000, 1500, 2000, 2500]
    variants = [
        "Indirect consensus w/ rbcast O(n^2)",
        "Consensus w/ uniform rbcast",
    ]
    fig = FigureData(
        fig_id="fig5",
        title="Latency vs payload, n=3, Setup 2 (RB uses O(n^2) messages)",
        xlabel="size of messages [bytes]",
    )
    panels = []
    for throughput in (500.0, 1500.0, 2000.0):
        panels.append((
            f"{throughput:.0f} msgs/s",
            _panel_sweep(f"fig5/{throughput:.0f}", variants, 3, SETUP_2,
                         [throughput], payloads, quick, options),
            "payload",
        ))
    return _run_panels(fig, panels, options)


def figure6(
    quick: bool = True, options: SuiteOptions = _DEFAULT_OPTIONS
) -> FigureData:
    """Latency vs payload, n=3, Setup 2: indirect+RB O(n) vs URB+consensus."""
    payloads = [1, 1250, 2500] if quick else [1, 500, 1000, 1500, 2000, 2500]
    variants = [
        "Indirect consensus w/ rbcast O(n)",
        "Consensus w/ uniform rbcast",
    ]
    fig = FigureData(
        fig_id="fig6",
        title="Latency vs payload, n=3, Setup 2 (RB uses O(n) messages)",
        xlabel="size of messages [bytes]",
    )
    panels = []
    for throughput in (500.0, 1500.0, 2000.0):
        panels.append((
            f"{throughput:.0f} msgs/s",
            _panel_sweep(f"fig6/{throughput:.0f}", variants, 3, SETUP_2,
                         [throughput], payloads, quick, options),
            "payload",
        ))
    return _run_panels(fig, panels, options)


def figure7(
    quick: bool = True, options: SuiteOptions = _DEFAULT_OPTIONS
) -> FigureData:
    """Latency vs throughput, n=3, Setup 2, 1-byte payload."""
    throughputs = [500.0, 1250.0, 2000.0] if quick else [
        500.0, 750.0, 1000.0, 1250.0, 1500.0, 1750.0, 2000.0,
    ]
    fig = FigureData(
        fig_id="fig7",
        title="Latency vs throughput, n=3, Setup 2, 1 B payload",
        xlabel="throughput [msgs/s]",
    )
    panels = [
        (
            "RB in O(n^2) messages",
            _panel_sweep(
                "fig7/flood",
                ["Indirect consensus w/ rbcast O(n^2)",
                 "Consensus w/ uniform rbcast"],
                3, SETUP_2, throughputs, [1], quick, options,
            ),
            "throughput",
        ),
        (
            "RB in O(n) messages",
            _panel_sweep(
                "fig7/sender",
                ["Indirect consensus w/ rbcast O(n)",
                 "Consensus w/ uniform rbcast"],
                3, SETUP_2, throughputs, [1], quick, options,
            ),
            "throughput",
        ),
    ]
    return _run_panels(fig, panels, options)


def all_figures(
    quick: bool = True, options: SuiteOptions = _DEFAULT_OPTIONS
) -> list[FigureData]:
    """Every measured figure of the paper, in order."""
    return [
        figure1(quick, options),
        figure3(quick, options),
        figure4(quick, options),
        figure5(quick, options),
        figure6(quick, options),
        figure7(quick, options),
    ]
