"""What the four workloads share: run arguments, slices, metric arithmetic."""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import stats
from .metrics import PER_LAYER, SPAN_METRICS
from .tracer import LayerTotals, Tracer, span_cost_s

__all__ = [
    "REFERENCE_EVERY_S", "REFERENCE_NOMINAL_S", "SCRATCH", "SLICE_S",
    "Outcome", "Pace", "Run", "Window", "end_to_end", "layer_metrics",
    "matching", "nominal", "provenance", "reference_kernel", "total_setup",
    "unattributed_share",
]

#: Scratch space inside the checkout (the benchmark may write nowhere
#: else).  Every run removes what it made there, and ``run_suite`` removes
#: the directory itself, also after a child it had to kill.
SCRATCH = Path(__file__).resolve().parents[2] / ".bench_tmp"

#: Length of one slice of the timed window (``table1-4k`` slices by sweep).
SLICE_S = 0.5
#: How often the reference kernel is timed while a workload runs.
REFERENCE_EVERY_S = 0.1
#: What one reference kernel takes on this box when nothing disturbs it.
#: Only a scale: it makes nominal seconds read like this box's seconds.
REFERENCE_NOMINAL_S = 0.7e-3

_SMALL = np.arange(64, dtype=np.uint8)


def reference_kernel() -> int:
    """A fixed piece of interpreter-bound work, about 0.7 ms.

    Dictionary, list and small-array traffic in the proportions the repo's
    own hot paths have; eight minutes of it interleaved with MFC encodes and
    with FTL operations showed that it slows down and speeds up with them
    (see README, *Steadiness*).  It must never change: every number the
    benchmark reports is a multiple of its duration.
    """
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for i in range(300):
        table[i & 63] = (i, total)
        window = _SMALL[i & 31:(i & 31) + 16]
        total += int(window.sum()) + len(table)
        squares = [j * j for j in range(12)]
        total ^= squares[i % 12]
    return total


@dataclass
class Run:
    """The arguments of one run of one workload."""

    seed: int
    seconds: float
    traced: bool
    import_s: float        # process start to all imports done
    setup_repeats: int     # set-ups per run; ``setup_s`` takes their median
    tracer: Tracer


@dataclass
class Outcome:
    """What one run of one workload produced."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    #: Parameters and informational numbers, printed before the result line.
    notes: dict = field(default_factory=dict)


class Window:
    """The timed window on the wall clock."""

    def __enter__(self) -> "Window":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.wall_s = self.end - self.start


class Pace:
    """The machine's speed while a workload runs, and the slice marks.

    A shared box runs the same code at 0.5 to 1.3 times its usual speed,
    changing within seconds and drifting over minutes, so seconds measured
    an hour apart do not compare.  ``Pace`` times :func:`reference_kernel`
    every ``REFERENCE_EVERY_S`` next to the workload; :meth:`factor` turns
    a duration measured around time ``t`` into **nominal seconds**: what it
    would have been had the reference run at ``REFERENCE_NOMINAL_S``.
    """

    def __init__(self, slice_s: float | None = SLICE_S) -> None:
        #: ``tick`` starts a slice this often; None leaves it to ``mark``.
        self._slice_s = slice_s
        self._times: list[float] = []      # when each reference sample ran
        self._seconds: list[float] = []    # how long it took
        self.marks: list[tuple[float, float]] = []  # (wall, process CPU)
        self._next_sample = 0.0
        self._next_mark = 0.0

    def sample(self) -> float:
        """Time the reference kernel now; returns the time afterwards."""
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self._times.append(start)
        self._seconds.append(end - start)
        self._next_sample = end + REFERENCE_EVERY_S
        return end

    def mark(self) -> float:
        """Start a new slice now (sampling the reference first)."""
        now = self.sample()
        self.marks.append((now, time.process_time()))
        if self._slice_s is not None:
            self._next_mark = now + self._slice_s
        return now

    def tick(self, now: float) -> None:
        """Call often: samples and marks whenever one is due."""
        if self._slice_s is not None and now >= self._next_mark:
            self.mark()
        elif now >= self._next_sample:
            self.sample()

    def factor(self, start: float, end: float | None = None) -> float:
        """Nominal seconds per measured second around ``[start, end]``.

        The median over the samples taken in the interval and the one on
        either side of it, so that a single sample that was itself hit by a
        stall does not count.
        """
        first = bisect.bisect_left(self._times, start)
        last = bisect.bisect_right(self._times, start if end is None else end)
        near = self._seconds[max(0, first - 1):last + 1]
        return REFERENCE_NOMINAL_S / statistics.median(near)

    def imports(self, import_s: float) -> tuple[float, float]:
        """``(measured, nominal)`` seconds of the imports that just ended."""
        return import_s, import_s * self.factor(self.sample())

    def timed(self, work) -> tuple[float, float]:
        """``(measured, nominal)`` seconds ``work()`` takes, sampling right
        before and after (and whenever the work itself ticks)."""
        start = self.sample()
        work()
        end = time.perf_counter()
        self.sample()
        return end - start, (end - start) * self.factor(start, end)

    def reference_ms(self) -> float:
        """Median duration of the reference kernel over the whole run."""
        return statistics.median(self._seconds) * 1e3


def total_setup(
    imports: tuple[float, float], set_ups: list[tuple[float, float]]
) -> tuple[float, float]:
    """``(measured, nominal)`` ``setup_s`` of a run: the imports plus the
    median of its set-ups, each given as such a pair."""
    measured, nominal_s = zip(*set_ups)
    return (imports[0] + stats.median(measured),
            imports[1] + stats.median(nominal_s))


def end_to_end(
    setup_s: tuple[float, float],
    pace: Pace,
    op_done: list[float],
    writes: list[tuple[float, float]],
    write_done: list[float] | None = None,
    open_loop: bool = False,
) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics of one untraced window: in nominal time, and
    the same metrics in measured seconds.

    ``setup_s`` is the ``(measured, nominal)`` pair of :func:`total_setup`,
    ``op_done`` holds the completion time of every op, ``writes`` the
    ``(completion time, latency)`` of the successful writes whose latency
    counts, and ``write_done`` the completion time of every successful
    write when that is more than ``writes`` covers; all in completion
    order.  Each latency is converted with the reference speed at its
    completion.  Every metric is then taken per slice (between
    ``pace.marks``) and the run reports the median slice, so that a stall
    spoils the slices it falls into and nothing else; slices shorter than
    half of the longest, or without a write, are left out.  The throughput
    of an ``open_loop`` is set by its schedule and not by the machine, so
    it stays in measured seconds.

    The second dictionary is what the clock read, slice by slice, with no
    reference kernel involved: the gate reads the first, a reader who
    doubts the yardstick compares it with the second.
    """
    latency_done = [done for done, _ in writes]
    if write_done is None:
        write_done = latency_done
    marks = pace.marks
    longest = max(b[0] - a[0] for a, b in zip(marks, marks[1:]))
    nominal_slices: dict[str, list[float]] = {
        "write_ops_per_s": [], "write_p50_ms": [], "write_p90_ms": [],
        "cpu_ms_per_op": [],
    }
    measured_slices: dict[str, list[float]] = {
        name: [] for name in nominal_slices
    }
    for (start, cpu_start), (end, cpu_end) in zip(marks, marks[1:]):
        ops = bisect.bisect_left(op_done, end) - bisect.bisect_left(op_done, start)
        inside = writes[
            bisect.bisect_left(latency_done, start):
            bisect.bisect_left(latency_done, end)
        ]
        if end - start < longest / 2 or not inside:
            continue
        written = bisect.bisect_left(write_done, end) - bisect.bisect_left(
            write_done, start
        )
        measured_ms = [latency * 1e3 for _, latency in inside]
        nominal_ms = [
            latency * pace.factor(done) * 1e3 for done, latency in inside
        ]
        factor = pace.factor(start, end)
        for slices, scale, latencies_ms in (
            (measured_slices, 1.0, measured_ms),
            (nominal_slices, factor, nominal_ms),
        ):
            slices["write_ops_per_s"].append(
                written / ((end - start) * (1.0 if open_loop else scale))
            )
            slices["write_p50_ms"].append(stats.median(latencies_ms))
            slices["write_p90_ms"].append(stats.percentile(latencies_ms, 0.9))
            slices["cpu_ms_per_op"].append(
                (cpu_end - cpu_start) * scale * 1e3 / ops
            )
    measured = {"setup_s": setup_s[0]}
    metrics = {"setup_s": setup_s[1]}
    for name in nominal_slices:
        measured[name] = stats.median(measured_slices[name])
        metrics[name] = stats.median(nominal_slices[name])
    return metrics, measured


def matching(totals: dict[str, LayerTotals], *spans: str) -> list[LayerTotals]:
    """Totals of the named spans, labelled forms (``name:label``) included."""
    return [
        layer for name, layer in totals.items()
        if name in spans or name.partition(":")[0] in spans
    ]


def layer_metrics(
    tracer: Tracer, window: Window, ops: int
) -> tuple[dict[str, float], dict[str, LayerTotals]]:
    """Every per-layer metric, the span-derived ones filled in.

    Metrics no span feeds start at 0.0 (the layer did not run on this
    workload); the caller overwrites the ones it computes itself.
    """
    totals = tracer.totals(window.start, window.end)
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    for name, _unit, spans, kind in SPAN_METRICS:
        layers = matching(totals, *spans)
        count = sum(layer.count for layer in layers)
        if not count:
            continue
        if kind == "self":
            metrics[name] = sum(layer.self_s for layer in layers) * 1e6 / ops
        elif kind == "total":
            metrics[name] = sum(layer.total_s for layer in layers) * 1e6 / ops
        elif kind == "calls":
            metrics[name] = count / ops
        elif kind == "p50":
            metrics[name] = stats.median(
                [d for layer in layers for d in layer.durations]
            ) * 1e3
        else:  # mean_us
            metrics[name] = sum(layer.total_s for layer in layers) * 1e6 / count
    spans_recorded = sum(layer.count for layer in totals.values())
    metrics["trace.overhead_share"] = (
        spans_recorded * span_cost_s() / window.wall_s
    )
    return metrics, totals


def unattributed_share(tracer: Tracer, window: Window) -> float:
    """Share of an in-process window spent outside every span."""
    return 1 - tracer.top_level_s(window.start, window.end, "") / window.wall_s


_TIME_UNITS = ("us/op", "us", "ms", "s")


def nominal(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """The per-layer metrics with every time converted to nominal time."""
    units = {metric.name: metric.unit for metric in PER_LAYER}
    return {
        name: value * factor if units[name] in _TIME_UNITS else value
        for name, value in metrics.items()
    }


def provenance() -> dict:
    """The machine shape every result is recorded with."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        # run.py pins these before numpy loads; "unset" means library default.
        "blas_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "telemetry": os.environ.get("REPRO_METRICS", "0"),
    }
