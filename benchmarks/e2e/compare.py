"""``python -m benchmarks.e2e compare OLD.json NEW.json``: the regression gate.

One row per (workload, end-to-end metric) from two ``run --out`` files,
with both medians, both spreads, the metric's bound and a verdict:

``better``      every NEW run reads better than every OLD run, and the medians
                differ by more than OLD's own spread;
``unresolved``  a spread (interquartile range over the median) is wider
                than the bound and the runs overlap, so the sample cannot
                tell "unchanged" from "worse" — rerun with more repeats; or
                the yardstick is in doubt on a served workload (see below);
``worse``       NEW's median is worse than OLD's by more than the bound;
``same``        anything else.

The gate reads nominal time (see ``harness.Pace``).  Under each row stands
the same metric in measured seconds, as the clock read it, so a reader can
see when the two disagree.  On the served workloads the reference kernel
runs on the event-loop thread and shares the interpreter lock with the
device thread under test, so a change to the server can move the yardstick
as well as the box can (README, *Steadiness*).  When the medians of
``reference_ms`` differ by more than ``REFERENCE_TOLERANCE`` there, the row
says so, and the same verdict is taken from the measured seconds: if the
two verdicts differ the row is ``unresolved``.  Then take OLD and NEW again
as paired runs (OLD, NEW, OLD, NEW, so that both see the same box): if the
reference still differs, the change moved it, and the measured seconds
decide.

Informational numbers are listed below the gate; the exact one
(``host_writes_per_page_erase`` on the in-process workloads, where the same
seed must give the same count) is flagged when it changes at all.
Exit code 1 on any ``worse`` row.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import stats

__all__ = [
    "REFERENCE_TOLERANCE", "compare", "measured_verdict", "reference_moved",
    "verdict",
]

EXACT = {
    ("table1-4k", "host_writes_per_page_erase"),
    ("device-wom-gc", "host_writes_per_page_erase"),
}
#: The workloads whose reference kernel runs beside the code under test.
SERVED = ("served-mixed-journaled", "served-open-write")
#: How far the medians of ``reference_ms`` may be apart on those before the
#: nominal verdict is checked against the measured seconds.
REFERENCE_TOLERANCE = 0.05
#: Open-loop throughput is in measured seconds and has no yardstick to move.
_NOT_NOMINAL = {("served-open-write", "write_ops_per_s")}


def verdict(
    old: list[float], new: list[float], old_row: dict, new_row: dict
) -> str:
    """Classify one metric; rows hold ``median``, ``spread``, ``bound``,
    ``better`` as ``run --out`` writes them."""
    sign = 1.0 if old_row["better"] == "lower" else -1.0
    bound = old_row["bound"]
    if not old or not new or old_row["median"] == 0:
        return "unresolved"
    worse_by = sign * (new_row["median"] - old_row["median"]) / abs(
        old_row["median"]
    )
    ordered_old = sorted(sign * value for value in old)
    ordered_new = sorted(sign * value for value in new)
    if ordered_new[-1] < ordered_old[0] and -worse_by > old_row["spread"]:
        return "better"
    disjoint_worse = ordered_new[0] > ordered_old[-1]
    if max(old_row["spread"], new_row["spread"]) > bound and not disjoint_worse:
        return "unresolved"
    return "worse" if worse_by > bound else "same"


def reference_moved(old_workload: dict, new_workload: dict) -> float | None:
    """By what share the median ``reference_ms`` moved from OLD to NEW, when
    that is more than the tolerance; None when it held or is missing."""
    old = old_workload["informational"].get("reference_ms")
    new = new_workload["informational"].get("reference_ms")
    if not old or not new:
        return None
    moved = new["median"] / old["median"] - 1
    return moved if abs(moved) > REFERENCE_TOLERANCE else None


def measured_verdict(old_row: dict, new_row: dict) -> str:
    """:func:`verdict` of one metric, taken from its measured seconds."""
    def measured(row: dict) -> dict:
        values = row["measured_values"]
        return {**row, "median": stats.median(values),
                "spread": stats.spread_share(values)}

    return verdict(
        old_row["measured_values"], new_row["measured_values"],
        measured(old_row), measured(new_row),
    )


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print(f"old: commit {old['provenance']['commit']}, "
          f"{old['provenance']['repeats']} repeats, "
          f"{old['provenance']['cpus']} CPUs")
    print(f"new: commit {new['provenance']['commit']}, "
          f"{new['provenance']['repeats']} repeats, "
          f"{new['provenance']['cpus']} CPUs")
    print(f"{'workload':<24}{'metric':<18}{'old median':>13}{'spread':>8}"
          f"{'new median':>13}{'spread':>8}{'bound':>7}  verdict")
    worst = 0
    for name, old_workload in old["workloads"].items():
        new_workload = new["workloads"].get(name)
        if new_workload is None:
            print(f"{name:<24}missing from {new_path}")
            worst = 1
            continue
        moved = (
            reference_moved(old_workload, new_workload)
            if name in SERVED else None
        )
        for metric, old_row in old_workload["end_to_end"].items():
            new_row = new_workload["end_to_end"][metric]
            result = verdict(
                old_row["values"], new_row["values"], old_row, new_row
            )
            if moved is not None and (name, metric) not in _NOT_NOMINAL:
                by_the_clock = measured_verdict(old_row, new_row)
                if by_the_clock == result:
                    result += f" (reference moved {moved:+.1%})"
                else:
                    result = (f"unresolved (reference moved {moved:+.1%}, "
                              f"measured seconds say {by_the_clock})")
            worst |= result.startswith("worse")
            print(f"{name:<24}{metric:<18}{old_row['median']:>13.4f}"
                  f"{old_row['spread']:>8.3f}{new_row['median']:>13.4f}"
                  f"{new_row['spread']:>8.3f}{old_row['bound']:>7}  {result}")
            print(f"{'':<24}{'  measured':<18}"
                  f"{old_row['measured_median']:>13.4f}{'':>8}"
                  f"{new_row['measured_median']:>13.4f}")
        for key, old_row in old_workload["informational"].items():
            new_row = new_workload["informational"].get(key)
            if new_row is None:
                continue
            note = ""
            if (name, key) in EXACT:
                same = old_row["values"] == new_row["values"]
                note = "exact: same" if same else "exact: CHANGED"
            print(f"{name:<24}{key + ' (info)':<31}"
                  f"{old_row['median']:>13.4f} -> {new_row['median']:<13.4f}"
                  f"{note}")
        if not new_workload["correct"]:
            print(f"{name:<24}NEW run failed its correctness checks")
            worst = 1
    return worst
