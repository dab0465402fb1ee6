"""Declarative experiment sweeps.

The paper's evaluation is a grid: stacks × throughputs × payloads (×
seeds for repetitions).  A :class:`SweepSpec` states that grid once,
declaratively, and expands it into concrete
:class:`~repro.harness.experiment.ExperimentSpec` points via
:meth:`SweepSpec.experiments`.  Execution is someone else's job —
:func:`repro.harness.runner.run_suite` runs the expanded points across
a process pool with result caching.

Example::

    from repro.harness.suite import SweepSpec
    from repro.harness.runner import run_suite
    from repro.stack.builder import StackSpec

    sweep = SweepSpec(
        name="fig1-low",
        variants=(
            ("indirect", StackSpec(n=3, abcast="indirect",
                                   consensus="ct-indirect", rb="sender")),
            ("messages", StackSpec(n=3, abcast="on-messages",
                                   consensus="ct", rb="sender")),
        ),
        throughputs=(100.0,),
        payloads=(1, 2500, 5000),
    )
    suite = run_suite(sweep)
    for spec, result in zip(sweep.experiments(), suite.results):
        print(spec.name, result.metric("latency")["mean_ms"])
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.core.exceptions import ConfigurationError
from repro.harness.experiment import ExperimentSpec
from repro.metrics.probes import DEFAULT_PROBES, validate_probe_names
from repro.net.faults import validate_fault_rules
from repro.net.topology import Topology
from repro.stack import layers
from repro.stack.builder import StackSpec


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of performance experiments.

    The expansion order is fixed and documented — variant, then fault
    set, then topology, then seed, then throughput, then payload — so
    result lists returned by :func:`~repro.harness.runner.run_suite`
    line up with :meth:`experiments` deterministically.

    Attributes:
        name: Sweep label; prefixes every generated experiment name.
        variants: ``(label, stack)`` pairs.  Each stack is a template;
            its ``seed`` field is overridden by the sweep's seed axis.
        fault_sets: ``(label, rules)`` pairs — each entry appends its
            fault rules (see :mod:`repro.net.faults`) to the variant
            stack's own ``faults``, making loss rates, duplication
            storms and partition windows sweepable grid dimensions.
            The rules are part of the stack spec, so they participate
            in the result-cache key.  The default single entry
            ``("", ())`` injects nothing and leaves experiment names
            untouched; non-empty labels are appended as ``+label``.
        topologies: ``(label, topology)`` pairs — each non-``None``
            entry overrides the variant stack's
            :class:`~repro.net.topology.Topology`.  Default: one
            ``("", None)`` entry (keep the stack's own placement);
            non-empty labels are appended as ``@label``.
        throughputs: Global abroadcast rates to sweep (messages/second).
        payloads: Payload sizes to sweep (bytes).
        seeds: Seeds for repetitions (one run per seed per grid point).
        target_messages: Messages to send inside the measurement window
            of each run; the sending window is derived per point as
            ``warmup + target_messages / throughput`` so every point
            measures comparably many messages.
        warmup: Seconds excluded at the start of each run.
        drain: Extra simulated seconds for in-flight deliveries.
        arrivals: ``"poisson"`` | ``"uniform"``.
        workload: Workload-registry name applied to every grid point:
            ``"symmetric"`` (open-loop) or ``"closed-loop"``.
        metrics: Metric-probe names (see
            :data:`repro.metrics.probes.PROBES`) measured at every grid
            point; a registered custom probe sweeps end-to-end by being
            named here.
        trace_mode: ``"full"`` (checkable event trace) or ``"metrics"``
            (streaming latency accumulators; cheap on long runs).
        safety_checks: Run the abcast safety checkers on each point.
            ``None`` (default) means "on exactly when the trace is
            full" — metrics mode cannot be checked.
        max_events: Per-run engine runaway guard.
    """

    name: str
    variants: tuple[tuple[str, StackSpec], ...]
    throughputs: tuple[float, ...]
    payloads: tuple[int, ...]
    seeds: tuple[int, ...] = (0,)
    fault_sets: tuple[tuple[str, tuple], ...] = (("", ()),)
    topologies: tuple[tuple[str, Topology | None], ...] = (("", None),)
    target_messages: int = 120
    warmup: float = 0.1
    drain: float = 0.5
    arrivals: str = "poisson"
    workload: str = "symmetric"
    metrics: tuple[str, ...] = DEFAULT_PROBES
    trace_mode: str = "full"
    safety_checks: bool | None = None
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        # Accept any sequences on the axes; canonicalise to tuples so
        # the spec stays hashable and pickle-clean.
        object.__setattr__(self, "variants", tuple(
            (str(label), stack) for label, stack in self.variants
        ))
        object.__setattr__(self, "fault_sets", tuple(
            (str(label), validate_fault_rules(tuple(rules)))
            for label, rules in self.fault_sets
        ))
        object.__setattr__(self, "topologies", tuple(
            (str(label), topology) for label, topology in self.topologies
        ))
        for axis in ("throughputs", "payloads", "seeds"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        object.__setattr__(
            self, "metrics", validate_probe_names(self.metrics)
        )
        if not self.variants:
            raise ConfigurationError("SweepSpec needs at least one variant")
        for axis in ("throughputs", "payloads", "seeds", "fault_sets",
                     "topologies"):
            if not getattr(self, axis):
                raise ConfigurationError(f"SweepSpec.{axis} must be non-empty")
        for axis in ("variants", "fault_sets", "topologies"):
            labels = [label for label, _ in getattr(self, axis)]
            if len(set(labels)) != len(labels):
                raise ConfigurationError(
                    f"duplicate {axis} labels in {labels}"
                )
        for _, topology in self.topologies:
            if topology is not None and not isinstance(topology, Topology):
                raise ConfigurationError(
                    f"topologies axis takes Topology or None, got {topology!r}"
                )
        if any(t <= 0 for t in self.throughputs):
            raise ConfigurationError("throughputs must be > 0")
        if any(p < 0 for p in self.payloads):
            raise ConfigurationError("payloads must be >= 0")
        if self.target_messages <= 0:
            raise ConfigurationError("target_messages must be > 0")
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {self.warmup}")
        if self.drain < 0:
            raise ConfigurationError(f"drain must be >= 0, got {self.drain}")
        if self.max_events < 1:
            raise ConfigurationError(
                f"max_events must be >= 1, got {self.max_events}"
            )
        if self.trace_mode not in ("full", "metrics"):
            raise ConfigurationError(
                f"unknown trace_mode {self.trace_mode!r}"
            )
        if self.safety_checks and self.trace_mode == "metrics":
            raise ConfigurationError(
                "safety_checks=True requires trace_mode='full'"
            )

    @staticmethod
    def point_label(variant: str, fault: str = "", topology: str = "") -> str:
        """Display label of one (variant, fault set, topology) combo.

        :meth:`experiments` stamps it on each point's ``label`` and
        name, so curve labels and experiment names always agree.
        """
        label = variant
        if fault:
            label += f"+{fault}"
        if topology:
            label += f"@{topology}"
        return label

    def __len__(self) -> int:
        """Number of grid points the sweep expands to."""
        return (
            len(self.variants)
            * len(self.fault_sets)
            * len(self.topologies)
            * len(self.seeds)
            * len(self.throughputs)
            * len(self.payloads)
        )

    def experiments(self) -> tuple[ExperimentSpec, ...]:
        """Expand the grid into concrete experiment specs, in order."""
        checks = (
            self.trace_mode == "full"
            if self.safety_checks is None
            else self.safety_checks
        )
        specs = []
        for label, stack in self.variants:
            for fault_label, fault_rules in self.fault_sets:
                for topo_label, topology in self.topologies:
                    shaped = stack
                    if fault_rules:
                        shaped = replace(
                            shaped, faults=shaped.faults + fault_rules
                        )
                    if topology is not None:
                        shaped = replace(shaped, topology=topology)
                    point_label = self.point_label(
                        label, fault_label, topo_label
                    )
                    for seed in self.seeds:
                        seeded = replace(shaped, seed=seed)
                        for throughput in self.throughputs:
                            duration = (
                                self.warmup + self.target_messages / throughput
                            )
                            for payload in self.payloads:
                                specs.append(ExperimentSpec(
                                    name=(
                                        f"{self.name}/{point_label} "
                                        f"n={seeded.n} "
                                        f"{throughput:g}msg/s {payload}B "
                                        f"seed={seed}"
                                    ),
                                    stack=seeded,
                                    throughput=throughput,
                                    payload=payload,
                                    duration=duration,
                                    warmup=self.warmup,
                                    drain=self.drain,
                                    arrivals=self.arrivals,
                                    workload=self.workload,
                                    metrics=self.metrics,
                                    label=point_label,
                                    safety_checks=checks,
                                    trace_mode=self.trace_mode,
                                    max_events=self.max_events,
                                ))
        return tuple(specs)


def registry_variants(
    n: int,
    abcasts: Iterable[str] | None = None,
    fds: Iterable[str] = ("oracle",),
    **stack_kwargs,
) -> tuple[tuple[str, StackSpec], ...]:
    """``(label, stack)`` variant pairs enumerated from the layer registry.

    Walks :func:`repro.stack.layers.compatible_combinations` — every
    registered atomic-broadcast variant with every consensus / rb / fd
    combination its registry entry allows — so a sweep over "all
    stacks" automatically includes newly registered ones.  Labels are
    ``abcast/consensus/rb/fd`` (axes with a single choice are elided).

    Args:
        n: Group size for every generated :class:`StackSpec`.
        abcasts: Restrict to these abcast names (default: all).
        fds: Restrict to these failure detectors (default: oracle).
        **stack_kwargs: Extra :class:`StackSpec` fields (``params``,
            ``network``, ``seed``, ...) shared by every variant.
    """
    wanted_abcasts = None if abcasts is None else set(abcasts)
    wanted_fds = set(fds)
    variants = []
    for abcast, consensus, rb, fd in layers.compatible_combinations():
        if wanted_abcasts is not None and abcast not in wanted_abcasts:
            continue
        if fd not in wanted_fds:
            continue
        label = abcast
        if len(layers.ABCASTS.get(abcast)["compatible_consensus"]) > 1:
            label += f"/{consensus}"
        if not layers.ABCASTS.get(abcast)["rb_override"] and consensus != "none":
            label += f"/{rb}"
        if len(wanted_fds) > 1:
            label += f"/{fd}"
        variants.append((label, StackSpec(
            n=n, abcast=abcast, consensus=consensus, rb=rb, fd=fd,
            **stack_kwargs,
        )))
    return tuple(variants)


def expand(sweeps: Iterable[SweepSpec] | SweepSpec) -> tuple[ExperimentSpec, ...]:
    """Expand one sweep or a sequence of sweeps into one flat spec list."""
    if isinstance(sweeps, SweepSpec):
        return sweeps.experiments()
    specs: list[ExperimentSpec] = []
    for sweep in sweeps:
        specs.extend(sweep.experiments())
    return tuple(specs)
