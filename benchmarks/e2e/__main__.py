"""``python -m benchmarks.e2e {run,compare,ladder,manifest}`` (see README.md)."""

from __future__ import annotations

import argparse
import json
import sys

from .metrics import manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="every workload, repeated, with the per-layer table"
    )
    run.add_argument("--seed", type=int, default=2016)
    run.add_argument("--repeats", type=int, default=5)
    run.add_argument("--out", metavar="FILE", help="write the report as JSON")
    run.add_argument(
        "--quick", action="store_true",
        help="3 s windows, 1 repeat, 1 set-up, no ladder: a smoke test",
    )

    compare = commands.add_parser(
        "compare", help="gate NEW.json against OLD.json (exit 1 on 'worse')"
    )
    compare.add_argument("old")
    compare.add_argument("new")

    commands.add_parser(
        "ladder", help="open-loop write p99 at 75/150/300 writes per second"
    )
    commands.add_parser("manifest", help="print what BENCHMARK.json must hold")

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.repeats < 1:
            parser.error("--repeats must be at least 1")
        from .suite import run_suite

        return run_suite(args.seed, args.repeats, args.quick, args.out)
    if args.command == "compare":
        from .compare import compare as compare_reports

        return compare_reports(args.old, args.new)
    if args.command == "ladder":
        from .run import pin_environment

        pin_environment()
        from .served import run_ladder

        print(json.dumps(run_ladder()))
        return 0
    print(json.dumps(manifest(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
