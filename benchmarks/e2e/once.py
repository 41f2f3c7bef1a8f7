"""One run of one workload: the command ``BENCHMARK.json`` names.

``run.py --workload NAME --seed N --seconds S --trace 0|1`` prints the run's
parameters and informational numbers as JSON lines, then, as the last line
of standard output, the result object the contract asks for.  The exit code
is 0 when every correctness check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from .harness import Outcome, Run, provenance
from .inprocess import run_device_wom_gc, run_table1_4k
from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS
from .served import run_served_mixed_journaled, run_served_open_write
from .tracer import Tracer

__all__ = ["main"]

RUNNERS = {
    "table1-4k": run_table1_4k,
    "device-wom-gc": run_device_wom_gc,
    "served-mixed-journaled": run_served_mixed_journaled,
    "served-open-write": run_served_open_write,
}
assert set(RUNNERS) == set(WORKLOADS)


def result_line(outcome: Outcome, traced: bool) -> str:
    """The contract's result object for one run, as one JSON line."""
    units = {m.name: m.unit for m in (PER_LAYER if traced else END_TO_END)}
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    })


def main(argv: list[str], import_s: float) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-repeats", type=int, default=3, metavar="N",
        help="set-ups per run; setup_s is their median (default 3)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.setup_repeats < 1:
        parser.error("--seconds and --setup-repeats must be positive")

    traced = bool(args.trace)
    tracer = Tracer()
    tracer.active = traced
    outcome = RUNNERS[args.workload](Run(
        args.seed, args.seconds, traced, import_s, args.setup_repeats, tracer
    ))
    if not traced:
        # What end_to_end() measures beyond the contract's metrics is
        # informational (see README): it travels with the notes.
        bounded = {metric.name for metric in END_TO_END}
        outcome.notes.update({
            name: value for name, value in outcome.metrics.items()
            if name not in bounded
        })
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(),
        "notes": {
            **outcome.notes,
            # Linux reports ru_maxrss in KiB.
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }))
    print(result_line(outcome, traced))
    sys.stdout.flush()
    return 0 if outcome.correct else 1
