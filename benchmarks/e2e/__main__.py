"""``PYTHONPATH=src python -m benchmarks.e2e {run,child,compare}``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalogue import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    verbs = parser.add_subparsers(dest="verb", required=True)

    run = verbs.add_parser("run", help="the whole benchmark, one result file")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="write result JSON here")
    run.add_argument("--trace-out", default=None,
                     help="directory for per-workload layers.json and .prof")
    run.add_argument("--smoke", action="store_true",
                     help="about one tenth the size, one round; never "
                          "comparable")

    child = verbs.add_parser("child", help="one repeat (spawned by run)")
    child.add_argument("--workload", required=True, choices=list(WORKLOADS))
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--traced", action="store_true")
    child.add_argument("--smoke", action="store_true")
    child.add_argument("--trace-out", default=None)

    compare = verbs.add_parser("compare", help="A.json against B.json")
    compare.add_argument("a")
    compare.add_argument("b")

    args = parser.parse_args(argv)
    if args.verb == "child":
        from . import child as child_module

        return child_module.main(args)
    if args.verb == "compare":
        from . import compare as compare_module

        return compare_module.main(args.a, args.b)

    from . import parent

    try:
        result = parent.run_all(
            args.seed, smoke=args.smoke, trace_out=args.trace_out
        )
    except parent.BenchError as error:
        print(f"FAIL {error}", file=sys.stderr)
        return 1
    print(parent.render(result))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
