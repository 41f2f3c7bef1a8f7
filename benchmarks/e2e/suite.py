"""``python -m benchmarks.e2e run``: every workload, repeated, in one report.

Each repeat of each workload is one fresh child interpreter running
``run.py`` (the command ``BENCHMARK.json`` names), so no run inherits warm
caches, a grown heap or a left-over thread from another.  Repeat ``i`` uses
seed ``seed + i``.  The untraced repeats give the end-to-end medians with
their spread (interquartile range over the median); one more traced run per
workload gives the per-layer table.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from . import stats
from .harness import SCRATCH, provenance
from .metrics import END_TO_END, RUN_SECONDS, WORKLOADS

__all__ = ["run_suite"]

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).with_name("run.py")
QUICK_SECONDS = 3
#: Seconds after which one child run is killed and counted as failed: what
#: the benchmark contract allows one run.
CHILD_TIMEOUT_S = 180
#: Numbers from a run's notes worth a line in the report: end-to-end in
#: kind, but not defined on every workload, so the contract keeps them out
#: of ``end_to_end``.  The first is exact: it must not change at all.
INFORMATIONAL = (
    "host_writes_per_page_erase", "write_p90_ms", "write_p99_ms", "read_p50_ms",
    "read_p99_ms",
    "recovery_s", "replayed_writes", "over_limit_share", "late_p95_ms",
    "peak_rss_mb", "reference_ms",
)
#: Notes that are neither parameters of the run nor informational numbers.
_NOT_PARAMETERS = ("table", "errors", "ops", "reads", "sweeps", "measured")


def _child(args: list[str]) -> list[dict] | None:
    """Run one child; its JSON output lines, or None if it printed none.

    A child that exits 1 after printing its result failed a correctness
    check; the result says so and is kept.  ``subprocess.run`` kills the
    child when the timeout expires, so a hung workload costs
    ``CHILD_TIMEOUT_S`` and is reported, never waited for.
    """
    try:
        done = subprocess.run(
            [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"  killed after {CHILD_TIMEOUT_S} s: {' '.join(args)}",
              flush=True)
        return None
    lines = [
        json.loads(line) for line in done.stdout.splitlines()
        if line.startswith("{")
    ]
    if done.returncode != 0 or not lines:
        print(f"  exit {done.returncode}: {' '.join(args)}\n{done.stderr}",
              flush=True)
    return lines or None


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _run_workload(
    name: str, seed: int, repeats: int, seconds: float, setup_repeats: int
) -> dict:
    """All passes of one workload, summarised."""
    common = ["--workload", name, "--seconds", str(seconds),
              "--setup-repeats", str(setup_repeats)]
    runs = []
    for repeat in range(repeats):
        print(f"  {name}: repeat {repeat + 1}/{repeats}", flush=True)
        runs.append(_child(
            [str(RUN_PY), *common, "--seed", str(seed + repeat), "--trace", "0"]
        ))
    print(f"  {name}: traced pass", flush=True)
    traced = _child(
        [str(RUN_PY), *common, "--seed", str(seed), "--trace", "1"]
    )
    completed = [run for run in runs if run is not None]
    results = [run[-1] for run in completed]
    attempted = sum(r["attempted"] for r in results)
    summary: dict = {
        "runs": len(results), "runs_failed": repeats - len(results),
        "traced_pass_failed": traced is None,
        "correct": bool(results) and len(results) == repeats
        and all(r["correct"] for r in results)
        and traced is not None and traced[-1]["correct"],
        "failed_op_share":
            sum(r["failed"] for r in results) / attempted if attempted else 1.0,
        "parameters": {
            key: value for key, value in completed[0][0]["notes"].items()
            if key not in INFORMATIONAL and key not in _NOT_PARAMETERS
        } if completed else {},
        "end_to_end": {}, "informational": {}, "per_layer": {},
    }
    for metric in END_TO_END:
        values = [r["metrics"][metric.name]["value"] for r in results]
        # The same metric as the clock read it, no reference kernel involved.
        measured = [run[0]["notes"]["measured"][metric.name] for run in completed]
        summary["end_to_end"][metric.name] = {
            "unit": metric.unit, "better": metric.better, "bound": metric.bound,
            "values": values, "median": stats.median(values),
            "spread": stats.spread_share(values),
            "measured_values": measured,
            "measured_median": stats.median(measured),
        }
    for key in INFORMATIONAL:
        values = [run[0]["notes"][key] for run in completed
                  if key in run[0]["notes"]]
        if values:
            summary["informational"][key] = {
                "values": values, "median": stats.median(values),
                "spread": stats.spread_share(values),
            }
    if traced is not None:
        summary["per_layer"] = {
            name_: entry["value"]
            for name_, entry in traced[-1]["metrics"].items()
        }
        summary["per_layer_units"] = {
            name_: entry["unit"]
            for name_, entry in traced[-1]["metrics"].items()
        }
    if completed and "table" in completed[0][0]["notes"]:
        summary["table1"] = completed[0][0]["notes"]["table"]
    return summary


def _print_workload(name: str, summary: dict) -> None:
    print(f"\n== {name}: {WORKLOADS[name]}")
    print("   " + ", ".join(
        f"{key}={value}" for key, value in summary["parameters"].items()
    ))
    if "table1" in summary:
        print("\n".join("   " + line for line in summary["table1"].splitlines()))
    print(f"   {'end-to-end metric':<28}{'unit':>6}{'median':>14}"
          f"{'spread':>9}{'n':>4}{'bound':>7}{'measured':>14}")
    for metric, row in summary["end_to_end"].items():
        print(f"   {metric:<28}{row['unit']:>6}{row['median']:>14.4f}"
              f"{row['spread']:>9.4f}{len(row['values']):>4}{row['bound']:>7}"
              f"{row['measured_median']:>14.4f}")
    print(f"   {'failed_op_share':<28}{'share':>6}"
          f"{summary['failed_op_share']:>14.4f}")
    for key, row in summary["informational"].items():
        print(f"   {key + ' (informational)':<44}{row['median']:>14.4f}"
              f"{row['spread']:>9.4f}{len(row['values']):>4}")
    if summary["per_layer"]:
        print(f"   {'per-layer metric (traced pass)':<46}{'value':>16} unit")
        units = summary["per_layer_units"]
        for metric, value in summary["per_layer"].items():
            if value:  # a zero means the layer did not run on this workload
                print(f"   {metric:<46}{value:>16.5f} {units[metric]}")
    if not summary["correct"]:
        print("   FAILED: a run did not finish or a correctness check failed")


def run_suite(seed: int, repeats: int, quick: bool, out: str | None) -> int:
    """Run everything, print the report, write ``out``; 0 when all correct."""
    try:
        return _run_suite(seed, repeats, quick, out)
    finally:
        # A child that was killed (timeout, ^C) could not remove its journals.
        shutil.rmtree(SCRATCH, ignore_errors=True)


def _run_suite(seed: int, repeats: int, quick: bool, out: str | None) -> int:
    seconds = QUICK_SECONDS if quick else RUN_SECONDS
    setup_repeats = 1 if quick else 3
    if quick:
        repeats = 1
    started = time.time()
    report = {
        "provenance": {
            **provenance(), "commit": _commit(), "seed": seed,
            "repeats": repeats, "seconds": seconds,
            "setup_repeats": setup_repeats,
        },
        "workloads": {}, "ladder": None,
    }
    print(f"benchmarks.e2e: {repeats} repeat(s) of {seconds} s per workload, "
          f"seed {seed}, {os.cpu_count()} CPUs", flush=True)
    for name in WORKLOADS:
        report["workloads"][name] = _run_workload(
            name, seed, repeats, seconds, setup_repeats
        )
    if not quick:
        print("  rate ladder", flush=True)
        ladder = _child(["-m", "benchmarks.e2e", "ladder"])
        report["ladder"] = ladder[-1] if ladder else None
    for name, summary in report["workloads"].items():
        _print_workload(name, summary)
    if report["ladder"]:
        print("\n== rate ladder on the served-open-write server "
              "(informational, one pass)")
        for key, value in report["ladder"].items():
            print(f"   {key:<46}{value:>16.4f}")
    print(f"\ntook {time.time() - started:.0f} s")
    if out:
        Path(out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(s["correct"] for s in report["workloads"].values()) else 1
