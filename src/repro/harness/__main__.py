"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.harness --figure 3            # quick resolution
    python -m repro.harness --figure all --full   # the paper's full grid
    python -m repro.harness --figure 2            # the Figure-2 quorum table
    python -m repro.harness --figure 7 --jobs 8   # 8 worker processes
    python -m repro.harness --figure 4 --trace-mode metrics  # cheap sweeps
    python -m repro.harness --figure 1 --format csv > fig1.csv
    python -m repro.harness --figure 3 --metrics latency,traffic
    python -m repro.harness --list-variants       # the layer registry

The ``explore`` verb runs bounded systematic schedule exploration
(:mod:`repro.explore`) instead of performance sweeps::

    python -m repro.harness explore --stack faulty       # find the §2.2 bug
    python -m repro.harness explore --stack all --budget 300
    python -m repro.harness explore --stack indirect --strategy random-walk
    python -m repro.harness explore --stack faulty --replay "5:c2"
    python -m repro.harness explore --replay "5:c2" --export-trace bug.json

The ``obs`` verb runs one observed experiment (:mod:`repro.obs`):
causal spans + runtime telemetry, exported as a Perfetto-loadable
Chrome trace or as ResultSet CSV/JSON tables::

    python -m repro.harness obs --stack indirect --export chrome out.json
    python -m repro.harness obs --stack sequencer --period 0.002 \
        --export chrome out.json --export csv telemetry.csv

The selected figures execute through one
:func:`repro.harness.runner.run_suite` call
(:func:`repro.harness.figures.run_figures`): points fan out over a
process pool (``--jobs``) and completed points are cached on disk
(``--cache-dir``; ``--no-cache`` neither reads nor writes it), so
re-running a figure only computes what is missing.  ``--metrics`` picks
the probe set measured at every point (any registered probe name), and
``--format csv|json`` exports the full per-point
:class:`~repro.harness.results.ResultSet` — every spec axis and every
probe field as columns — instead of the per-panel latency tables.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.exceptions import ConfigurationError
from repro.harness.charts import render_chart
from repro.harness.figures import FIGURES, figure2_table, run_figures
from repro.harness.report import FORMATS, render_figure, render_resultset
from repro.harness.results import concat
from repro.metrics.probes import DEFAULT_PROBES, PROBES
from repro.stack import layers


def render_variants() -> str:
    """The layer registry, rendered family by family."""
    lines = ["Registered layer variants (see repro.stack.layers):"]
    for registry in layers.FAMILIES:
        lines.append(f"\n{registry.family}:")
        for entry in registry:
            lines.append(f"  {entry.name:<14} {entry.description}")
            details = []
            consensuses = entry.get("compatible_consensus")
            if consensuses:
                details.append(f"consensus: {', '.join(consensuses)}")
            if entry.get("rb_override"):
                details.append(f"rb forced to: {entry['rb_override']}")
            if entry.frame_kinds:
                details.append(f"frames: {', '.join(entry.frame_kinds)}")
            for detail in details:
                lines.append(f"  {'':<14}   {detail}")
    lines.append(
        "\nStack combinations allowed by the compatibility constraints:"
    )
    for abcast, consensus, rb, fd in layers.compatible_combinations():
        lines.append(
            f"  abcast={abcast} consensus={consensus} rb={rb} fd={fd}"
        )
    return "\n".join(lines)


def explore_main(argv: list[str]) -> int:
    """The ``explore`` verb: bounded schedule exploration."""
    from repro.explore import (
        STRATEGIES,
        explore_many,
        explore_spec,
        outcomes_result_set,
        registry_explore_specs,
        replay,
    )
    from repro.explore.runner import PRESETS

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness explore",
        description="Systematically explore delivery/crash schedules of a "
                    "stack and report property violations with shrunk, "
                    "replayable repro strings.",
    )
    parser.add_argument(
        "--stack",
        action="append",
        metavar="NAME",
        help="stack preset (%s), an abcast/consensus[/rb[/fd]] path, or "
             "'all' for every allowed registry combination; repeatable "
             "(default: faulty)" % ", ".join(sorted(PRESETS)),
    )
    parser.add_argument(
        "--strategy",
        default="delay-bounded",
        help="search strategy: %s" % ", ".join(STRATEGIES.names()),
    )
    parser.add_argument("--budget", type=int, default=4000, metavar="N",
                        help="max schedules to explore per stack")
    parser.add_argument("--max-deviations", type=int, default=3, metavar="D",
                        help="deviations per schedule (search depth)")
    parser.add_argument("--max-crashes", type=int, default=None, metavar="C",
                        help="crash budget per schedule (default: min(1, f))")
    parser.add_argument("--horizon", type=float, default=1.0, metavar="SECS",
                        help="simulated seconds per schedule")
    parser.add_argument("--n", type=int, default=3,
                        help="group size of the explored stacks")
    parser.add_argument("--fd", default="oracle",
                        help="failure detector of preset stacks")
    parser.add_argument("--seed", type=int, default=0,
                        help="random-walk stream seed")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="pool workers, one explored stack per worker")
    parser.add_argument("--all-violations", action="store_true",
                        help="exhaust the budget instead of stopping at the "
                             "first violation")
    parser.add_argument("--replay", metavar="REPRO", default=None,
                        help="replay one repro string against --stack "
                             "instead of searching")
    parser.add_argument("--export-trace", nargs="?", const="trace.json",
                        default=None, metavar="PATH",
                        help="with --replay: derive causal spans from the "
                             "replayed schedule and export a Chrome/"
                             "Perfetto trace (default PATH: trace.json)")
    parser.add_argument("--format", choices=FORMATS, default="table",
                        help="outcome table format")
    args = parser.parse_args(argv)

    if args.export_trace is not None and args.replay is None:
        parser.error("--export-trace requires --replay")

    if args.strategy not in STRATEGIES:
        parser.error(STRATEGIES.unknown_message(args.strategy))
    stacks = args.stack or ["faulty"]
    options = dict(
        strategy=args.strategy,
        budget=args.budget,
        max_deviations=args.max_deviations,
        max_crashes=args.max_crashes,
        horizon=args.horizon,
        stop_after=0 if args.all_violations else 1,
        seed=args.seed,
    )
    specs = []
    try:
        for name in stacks:
            if name == "all":
                specs.extend(registry_explore_specs(
                    n=args.n, fds=(args.fd,), **options
                ))
            else:
                specs.append(
                    explore_spec(name, n=args.n, fd=args.fd, **options)
                )
    except ConfigurationError as error:
        parser.error(str(error))

    if args.replay is not None:
        if len(specs) != 1:
            parser.error("--replay needs exactly one --stack")
        system, record = replay(specs[0], args.replay)
        verdict = record.violation
        print(f"replayed {args.replay!r} against {specs[0].label}: "
              f"{record.events} events, "
              f"{'drained' if record.drained else 'horizon-bounded'}")
        for pid in sorted(system.processes):
            sequence = system.trace.adelivery_sequence(pid)
            crashed = " (crashed)" if system.processes[pid].crashed else ""
            print(f"  p{pid}{crashed} adelivered: "
                  f"{[str(mid) for mid in sequence]}")
        if args.export_trace is not None:
            from repro.obs import SpanRecorder, write_chrome_trace

            recorder = SpanRecorder.from_trace(system.trace, system)
            write_chrome_trace(args.export_trace, recorder.spans)
            print(f"trace exported: {args.export_trace} "
                  f"({len(recorder.spans)} spans; open in ui.perfetto.dev)")
        if verdict is None:
            print("verdict: all checked properties hold")
            return 0
        print(f"verdict: {verdict.prop} violated — {verdict.detail}")
        return 1

    started = time.perf_counter()
    outcomes = explore_many(specs, jobs=args.jobs)
    out = render_resultset(outcomes_result_set(outcomes), format=args.format)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    if args.format == "table":
        # The replay command must rebuild the same spec: carry every
        # spec-shaping flag that differs from its default, or a crash
        # deviation aimed at (say) p5 would be leniently skipped
        # against a default n=3 spec and "refute" the finding.
        shaping = ""
        for flag, value, default in (
            ("--n", args.n, 3),
            ("--fd", args.fd, "oracle"),
            ("--horizon", args.horizon, 1.0),
            ("--max-crashes", args.max_crashes, None),
            ("--max-deviations", args.max_deviations, 3),
        ):
            if value != default:
                shaping += f" {flag} {value}"
        for outcome in outcomes:
            for violation in outcome.violations:
                print(f"[{outcome.spec.label}] {violation.describe()}")
                print(f"    replay: python -m repro.harness explore "
                      f"--stack {outcome.spec.name}{shaping} "
                      f"--replay \"{violation.repro}\"")
        print(f"[done in {time.perf_counter() - started:.1f}s wall]")
    return 0


def obs_main(argv: list[str]) -> int:
    """The ``obs`` verb: one observed run, exported as a timeline."""
    from repro.explore.runner import PRESETS, stack_layers
    from repro.harness.experiment import ExperimentSpec
    from repro.obs import (
        chrome_trace,
        observe_experiment,
        spans_result_set,
        telemetry_result_set,
        write_chrome_trace,
    )
    from repro.stack.builder import StackSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness obs",
        description="Run one experiment with causal span tracing and "
                    "runtime telemetry, and export the timeline "
                    "(Chrome/Perfetto trace or ResultSet CSV/JSON).",
    )
    parser.add_argument(
        "--stack", default="indirect", metavar="NAME",
        help="stack preset (%s) or an abcast/consensus[/rb[/fd]] path, "
             "read as by explore (default: indirect)"
             % ", ".join(sorted(PRESETS)),
    )
    parser.add_argument("--n", type=int, default=3,
                        help="group size (default: 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--throughput", type=float, default=200.0,
                        help="global abroadcast rate, msgs/s (default: 200)")
    parser.add_argument("--payload", type=int, default=64,
                        help="payload bytes (default: 64)")
    parser.add_argument("--duration", type=float, default=0.3,
                        help="sending window, simulated seconds")
    parser.add_argument("--warmup", type=float, default=0.05)
    parser.add_argument("--drain", type=float, default=0.5)
    parser.add_argument("--period", type=float, default=0.005,
                        help="telemetry sampling cadence, simulated "
                             "seconds; 0 disables sampling (default: 0.005)")
    parser.add_argument("--trace-mode", choices=("full", "metrics"),
                        default="full",
                        help="'metrics' skips trace retention; both modes "
                             "are safety-checked and the span forest is "
                             "identical either way")
    parser.add_argument(
        "--export", nargs=2, action="append", default=[],
        metavar=("FORMAT", "PATH"),
        help="export the run: 'chrome PATH' (Perfetto-loadable trace), "
             "'csv PATH'/'json PATH' (telemetry time series as a "
             "ResultSet table), 'spans-csv PATH'/'spans-json PATH' "
             "(the span forest as a table); repeatable",
    )
    args = parser.parse_args(argv)

    formats = ("chrome", "csv", "json", "spans-csv", "spans-json")
    for fmt, _path in args.export:
        if fmt not in formats:
            parser.error(
                f"unknown export format {fmt!r}; choose from "
                f"{', '.join(formats)}"
            )

    try:
        spec = ExperimentSpec(
            name=f"obs-{args.stack.replace('/', '-')}",
            stack=StackSpec(
                n=args.n, seed=args.seed, **stack_layers(args.stack)
            ),
            throughput=args.throughput,
            payload=args.payload,
            duration=args.duration,
            warmup=args.warmup,
            drain=args.drain,
            trace_mode=args.trace_mode,
        )
        run = observe_experiment(spec, period=args.period or None)
    except ConfigurationError as error:
        parser.error(str(error))

    from collections import Counter

    kinds = Counter(span.kind for span in run.spans)
    print(f"observed {spec.name}: {run.result.sent} sent, "
          f"{len(run.spans)} spans "
          f"({', '.join(f'{k}={v}' for k, v in sorted(kinds.items()))}), "
          f"{len(run.telemetry)} telemetry series")
    print(f"  mean delivery latency: "
          f"{run.result.metric('latency')['mean_ms']:.3f} ms")

    for fmt, path in args.export:
        if fmt == "chrome":
            write_chrome_trace(path, run.spans, run.telemetry)
        else:
            table = (
                spans_result_set(run.spans)
                if fmt.startswith("spans-")
                else telemetry_result_set(run.telemetry)
            )
            rendered = (
                table.to_csv() if fmt.endswith("csv") else table.to_json()
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        print(f"  exported {fmt}: {path}")
    if not args.export:
        doc = chrome_trace(run.spans, run.telemetry)
        print(f"  (no --export given; a chrome export would hold "
              f"{len(doc['traceEvents'])} trace events)")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explore":
        return explore_main(argv[1:])
    if argv and argv[0] == "obs":
        return obs_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate figures from Ekwall & Schiper (DSN 2006).",
    )
    parser.add_argument(
        "--figure",
        default="all",
        choices=("all", "2", *FIGURES),
        help="figure number (1,2,3,4,5,6,7) or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the paper's full sweep grid (slower, tighter statistics)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render ASCII charts of the curves",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep pool (default: one per CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro-sweeps)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point, reading and writing no cache",
    )
    parser.add_argument(
        "--trace-mode",
        choices=("full", "metrics"),
        default="full",
        help="'metrics' retains no event trace (far less memory on "
             "long sweeps); both modes safety-check every run and the "
             "metric probes report identical values either way",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="P1,P2,...",
        help="comma-separated metric-probe names to measure per point "
             "(default: the registry defaults; any registered probe, "
             "including custom ones, may be named)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="table",
        help="'table' renders per-panel latency tables; 'csv'/'json' "
             "export every point of the selected figures as one "
             "columnar ResultSet (all spec axes and probe fields)",
    )
    parser.add_argument(
        "--list-variants",
        action="store_true",
        help="print every registered layer variant (and the stack "
             "combinations the compatibility constraints allow), then exit",
    )
    args = parser.parse_args(argv)

    if args.list_variants:
        print(render_variants())
        return 0

    metrics = DEFAULT_PROBES
    if args.metrics is not None:
        metrics = tuple(
            name.strip() for name in args.metrics.split(",") if name.strip()
        )
        for name in metrics:
            if name not in PROBES:
                parser.error(PROBES.unknown_message(name))
        if not metrics:
            parser.error("--metrics needs at least one probe name")

    started = time.perf_counter()
    if args.figure == "2":
        out = render_resultset(
            figure2_table(), format=args.format, title="Figure 2 arithmetic"
        )
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
        return 0

    try:
        figures = run_figures(
            list(FIGURES) if args.figure == "all" else [args.figure],
            quick=not args.full,
            trace_mode=args.trace_mode,
            metrics=metrics,
            processes=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
    except ConfigurationError as error:
        parser.error(str(error))

    if args.format != "table":
        # One columnar export of every point of every selected figure;
        # nothing else on stdout, so the output pipes cleanly.  Figures
        # may measure different probe fields, so union-pad.
        out = render_resultset(
            concat(
                [rs for panels in figures.values() for rs in panels.values()],
                strict=False,
            ),
            format=args.format,
        )
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
        return 0

    if args.figure == "all":
        print(render_resultset(figure2_table(), title="Figure 2 arithmetic"))
        print()
    for fig_id, panels in figures.items():
        print(render_figure(fig_id, panels))
        if args.chart:
            print()
            print(f"== fig{fig_id}: {FIGURES[fig_id].title} ==")
            for name, panel in panels.items():
                print()
                print(render_chart(panel, FIGURES[fig_id].x,
                                   title=f"-- {name} --"))
        if args.figure == "all":
            print()
    print(f"[done in {time.perf_counter() - started:.1f}s wall]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
