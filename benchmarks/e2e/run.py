"""The entry point the root ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds T --trace 0|1``
measures one workload and prints one JSON object on the last stdout
line: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--trace 0`` repeats untraced children for about ``T`` seconds (never
fewer than ``parent.ROUNDS``, so a workload with a long body overruns
``T``) and reports the end-to-end host metrics every workload has.  ``--trace 1`` runs one untraced and one traced child and reports
every per-layer metric, plus the end-to-end metrics that exist only on
some workloads or only under the profiler; a metric that is not defined
on the workload reads 0.  Any wrong output, disagreement between
repeats or missing program exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import parent  # noqa: E402
from benchmarks.e2e.catalogue import (  # noqa: E402
    CONTRACT_END_TO_END,
    CONTRACT_PER_LAYER,
    WORKLOADS,
)


def result_line(summary: dict, trace: bool) -> dict:
    """The contract's result object from one workload's summary."""
    cells = {**summary["end_to_end"], **summary["per_layer"]}
    wanted = CONTRACT_PER_LAYER if trace else CONTRACT_END_TO_END
    return {
        "correct": True,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m.name: {
                # Not defined on this workload (summarise checked the
                # rest): the contract wants a number, so 0.
                "value": cells[m.name]["value"] if m.name in cells else 0,
                "unit": m.unit,
            }
            for m in wanted
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="about one tenth the size, for the smoke test; "
                             "never comparable")
    args = parser.parse_args(argv)
    try:
        if args.trace:
            result = parent.run_all(
                args.seed, smoke=args.smoke, only=args.workload, rounds=1
            )
        else:
            result = parent.run_all(
                args.seed, smoke=args.smoke, only=args.workload,
                seconds=args.seconds, trace=False,
            )
    except parent.BenchError as error:
        print(f"FAIL {error}", file=sys.stderr)
        return 1
    print(json.dumps(
        result_line(result["workloads"][args.workload], bool(args.trace))
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
