"""The two in-process workloads: ``table1-4k`` and ``device-wom-gc``.

Both are closed loops with one caller and no server, so every microsecond
of the timed window is spent on the calling thread and the traced pass must
account for at least 90% of it (``trace.unattributed_share``).
"""

from __future__ import annotations

import dataclasses
import time

from repro.coding.kernels import resolve_backend
from repro.experiments import pool, table1
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import clear_scheme_memo
from repro.flash.geometry import FlashGeometry
from repro.ssd.device import SSD
from repro.workload import OpKind, make_workload, payload_for

from . import stats
from .harness import (
    Outcome, Pace, Run, Window, end_to_end, layer_metrics, matching, nominal,
    total_setup, unattributed_share,
)
from .metrics import TABLE1_CELLS
from .oracle import PageOracle
from .tracer import BOUNDARIES

__all__ = [
    "DEVICE_GEOMETRY", "DEVICE_UTILIZATION", "TABLE1_GOLDEN", "device_counts",
    "lanes_mean", "one_lane_encode_p50_ms", "run_device_wom_gc",
    "run_table1_4k", "stats_snapshot",
]

#: Table I at 4 KB pages, 5 cycles, K=7, seed 2016 — the block
#: ``results_full.txt`` records, byte for byte.
TABLE1_GOLDEN = """\
implementation        rate  lifetime  aggregate
-----------------------------------------------
Uncoded             1.0000      1.00       1.00
Redundancy-1/2      0.5000      2.00       1.00
WOM                 0.6666      2.00       1.33
MFC-1/2-1BPC        0.1663     16.00       2.66
MFC-1/2-2BPC        0.3329      4.00       1.33
MFC-2/3             0.2214      9.40       2.08
MFC-3/4             0.2488      5.00       1.24
MFC-4/5             0.2651      4.40       1.17"""
GOLDEN_SEED = 2016
#: The paper's headline code, and the one every other workload runs.
HEADLINE = "MFC-1/2-1BPC"

#: The ``device-wom-gc`` device: 512 pages of 4096 bits, 396 of them
#: logical at utilization 0.8.
DEVICE_GEOMETRY = dict(
    blocks=32, pages_per_block=16, page_bits=4096, erase_limit=10**6
)
DEVICE_UTILIZATION = 0.8

#: ``device-wom-gc`` reports its counts over exactly this many ops per
#: second of window (30 000 at 20 s, about half of what this box completes),
#: from the start of the window, so that they repeat run to run; the window
#: never ends before them.
COUNTED_OPS_PER_SECOND = 1500

#: The three classes behind Table I's eight schemes.  Timing their ``write``
#: is how ``table1-4k`` sees single page writes inside ``run_table1``; it
#: is the one wrapper present in the untraced pass.
_SCHEME_WRITES = tuple(
    b for b in BOUNDARIES
    if b.name == "core.scheme_write" and b.target.endswith(".write")
)


# -- table1-4k ----------------------------------------------------------------

def _table1_config(seed: int, cycles: int) -> ExperimentConfig:
    return ExperimentConfig(
        page_bytes=4096, cycles=cycles, seed=seed, constraint_length=7,
        lanes=1, jobs=1, cache=False, metrics=False, viterbi_backend="auto",
    )


def _table1_errors(rows, seed: int) -> list[str]:
    """What is wrong with one sweep's rows (nothing, when correct)."""
    errors = []
    if seed == GOLDEN_SEED:
        if table1.format_table1(rows) != TABLE1_GOLDEN:
            errors.append("Table I differs from the seed-2016 golden")
        return errors
    golden = [line.split() for line in TABLE1_GOLDEN.splitlines()[2:]]
    for row, (name, rate, *_rest) in zip(rows, golden, strict=True):
        if row.name != name or f"{row.rate:.4f}" != rate:
            errors.append(f"{row.name}: rate {row.rate:.4f}, golden {rate}")
    for name, gain in (("Uncoded", 1), ("Redundancy-1/2", 2), ("WOM", 2)):
        measured = next(r.lifetime_gain for r in rows if r.name == name)
        if measured != gain:
            errors.append(f"{name}: lifetime gain {measured}, must be {gain}")
    return errors


def run_table1_4k(run: Run) -> Outcome:
    """Table I at paper scale, swept back to back for ``run.seconds``.

    Every sweep uses the same seed and so does the same work, which makes
    the sweeps the slices of this window.  Throughput counts the accepted
    writes of all eight schemes; the latency metrics take the
    ``MFC-1/2-1BPC`` writes only, the code every other workload runs, since
    a percentile over eight schemes whose writes cost 0.01 to 47 ms would
    follow the mix and not the code.
    """
    tracer = run.tracer
    pace = Pace(slice_s=None)  # the sweeps are the slices
    imports = pace.imports(run.import_s)
    # run_table1 cannot be asked to tick, so the scheme writes inside it do.
    tracer.install(tuple(
        dataclasses.replace(b, after=pace.tick) if b in _SCHEME_WRITES else b
        for b in (BOUNDARIES if run.traced else _SCHEME_WRITES)
    ))
    try:
        setup = []
        for _ in range(run.setup_repeats):
            clear_scheme_memo()
            setup.append(pace.timed(
                lambda: table1.run_table1(_table1_config(run.seed, cycles=1))
            ))

        config = _table1_config(run.seed, cycles=5)
        sweeps = []
        with Window() as window:
            deadline = pace.mark() + run.seconds
            while not sweeps or time.perf_counter() < deadline:
                sweeps.append(table1.run_table1(config))
                pace.mark()
    finally:
        tracer.uninstall()
        pool.shutdown()

    errors = _table1_errors(sweeps[0], run.seed)
    if any(table1.format_table1(s) != table1.format_table1(sweeps[0])
           for s in sweeps[1:]):
        errors.append("sweeps of one seed disagree")
    # Only accepted writes are ops; a refused one is the cost of an erase.
    writes = tracer.spans("core.scheme_write", window.start, window.end)
    accepted = [span for span in writes if not span.failed]
    refused = len(writes) - len(accepted)
    ops = len(accepted)
    headline = [
        (span.end, span.end - span.start) for span in accepted
        if span.name == f"core.scheme_write:{HEADLINE}"
    ]
    gain = next(r.lifetime_gain for r in sweeps[0] if r.name == HEADLINE)
    notes = {
        "scheme": "table1 (8 schemes)", "latency_scheme": HEADLINE,
        "constraint_length": 7, "page_bits": 32768, "cycles": 5,
        "sweeps": len(sweeps),
        "viterbi_backend": resolve_backend("auto").name,
        "host_writes_per_page_erase": gain, "errors": errors,
        "table": table1.format_table1(sweeps[0]),
        "reference_ms": pace.reference_ms(),
    }
    if not run.traced:
        notes["write_p99_ms"] = stats.percentile(
            [latency * pace.factor(done) for done, latency in headline], 0.99
        ) * 1e3
        accepted_done = [span.end for span in accepted]
        metrics, notes["measured"] = end_to_end(
            total_setup(imports, setup), pace, accepted_done,
            headline, write_done=accepted_done,
        )
    else:
        metrics, totals = layer_metrics(tracer, window, ops)
        metrics["coding.viterbi_lanes_mean"] = lanes_mean(totals)
        metrics["coding.encode_p50_ms"] = one_lane_encode_p50_ms(totals)
        metrics["core.unwritable_share"] = refused / (ops + refused)
        metrics["core.lifetime_gain"] = gain
        for cell in TABLE1_CELLS:
            label = "core.lifetime_sim:" + cell.replace("_", "/")
            metrics[f"experiments.cell_s.{cell}"] = stats.median([
                d for name, layer in totals.items() if name.lower() == label
                for d in layer.durations
            ])
        headline_ms = [latency * 1e3 for _, latency in headline]
        metrics["client.write_p90_ms"] = stats.percentile(headline_ms, 0.9)
        metrics["client.write_p99_ms"] = stats.percentile(headline_ms, 0.99)
        metrics["trace.unattributed_share"] = unattributed_share(tracer, window)
        metrics = nominal(metrics, pace.factor(window.start, window.end))
    return Outcome(
        attempted=ops, failed=ops if errors else 0, correct=not errors,
        metrics=metrics, notes=notes,
    )


def lanes_mean(totals) -> float:
    """Mean lanes per ``CosetViterbi.search_batch`` call."""
    lanes = [
        value for layer in matching(totals, "coding.viterbi_search")
        for value in layer.values if value is not None
    ]
    return sum(lanes) / len(lanes)


def one_lane_encode_p50_ms(totals) -> float:
    """Median duration of the coset ``encode_batch`` calls that had one lane."""
    one_lane = [
        duration
        for layer in matching(totals, "coding.coset_encode")
        for duration, lanes in zip(layer.durations, layer.values)
        if lanes == 1
    ]
    return stats.median(one_lane) * 1e3


# -- device-wom-gc ------------------------------------------------------------

def device_counts(ssd: SSD, before: tuple, ops: int) -> dict[str, float]:
    """FTL and chip counters since ``before``, per host op."""
    ftl_then, chip_then = before
    ftl, chip = ssd.ftl.stats, ssd.chip.stats
    host_writes = ftl.host_writes - ftl_then.host_writes
    programs = chip.page_programs - chip_then.page_programs
    erases = chip.block_erases - chip_then.block_erases
    metrics = {
        "ftl.relocations_per_op": (ftl.relocations - ftl_then.relocations) / ops,
        "ftl.gc_runs_per_op": (ftl.gc_runs - ftl_then.gc_runs) / ops,
        "ftl.gc_relocations_per_op":
            (ftl.gc_relocations - ftl_then.gc_relocations) / ops,
        "flash.page_programs_per_op": programs / ops,
        "flash.page_reads_per_op":
            (chip.page_reads - chip_then.page_reads) / ops,
        "flash.block_erases_per_op": erases / ops,
        "flash.bits_programmed_per_op":
            (chip.bits_programmed - chip_then.bits_programmed) / ops,
    }
    if host_writes:
        metrics["ftl.in_place_share"] = (
            ftl.in_place_rewrites - ftl_then.in_place_rewrites
        ) / host_writes
        metrics["ftl.write_amplification"] = programs / host_writes
    if erases:
        metrics["ftl.host_writes_per_page_erase"] = host_writes / (
            erases * ssd.geometry.pages_per_block
        )
    return metrics


def stats_snapshot(ssd: SSD) -> tuple:
    return ssd.ftl.stats.snapshot(), ssd.chip.stats.snapshot()


def _build_wom_device(seed: int) -> tuple[SSD, PageOracle]:
    """A WOM device with every logical page written once."""
    ssd = SSD(
        geometry=FlashGeometry(**DEVICE_GEOMETRY), scheme="wom",
        utilization=DEVICE_UTILIZATION,
    )
    bits = ssd.logical_page_bits
    oracle = PageOracle(blank=bytes(bits))
    fill = make_workload("sequential", ssd.logical_pages, seed=seed)
    for _ in range(ssd.logical_pages):
        op = next(fill)
        payload = payload_for(op, bits)
        token = oracle.write_issued(op.lpn, payload.tobytes())
        ssd.write(op.lpn, payload)
        oracle.write_acked(token)
    return ssd, oracle


def run_device_wom_gc(run: Run) -> Outcome:
    """zipf 80/20 on a WOM device: FTL relocation and GC do the work."""
    tracer = run.tracer
    pace = Pace()
    imports = pace.imports(run.import_s)
    if run.traced:
        tracer.install()
    try:
        setup = []
        for _ in range(run.setup_repeats):
            built = []
            setup.append(pace.timed(
                lambda: built.append(_build_wom_device(run.seed))
            ))
            ssd, oracle = built[0]

        bits = ssd.logical_page_bits
        stream = make_workload(
            "zipf", ssd.logical_pages, seed=run.seed, read_fraction=0.2
        )
        ftl_stats = ssd.ftl.stats
        clock = time.perf_counter
        op_done: list[float] = []
        writes: list[tuple[float, float]] = []
        read_s: list[float] = []
        gc_write_s: list[float] = []
        wrong = 0
        before = stats_snapshot(ssd)
        counted_ops = round(COUNTED_OPS_PER_SECOND * run.seconds)
        counted = None
        with Window() as window:
            deadline = pace.mark() + run.seconds
            ops = 0
            while ops < counted_ops or clock() < deadline:
                with tracer.span("workload.next_op"):
                    op = next(stream)
                if op.kind is OpKind.READ:
                    start = clock()
                    data = ssd.read(op.lpn)
                    end = clock()
                    read_s.append(end - start)
                    read = oracle.read_issued(op.lpn)
                    wrong += not oracle.read_matches(read, data.tobytes())
                else:
                    with tracer.span("workload.payload_for"):
                        payload = payload_for(op, bits)
                    gc_runs = ftl_stats.gc_runs
                    start = clock()
                    ssd.write(op.lpn, payload)
                    end = clock()
                    writes.append((end, end - start))
                    if ftl_stats.gc_runs != gc_runs:
                        gc_write_s.append(end - start)
                    oracle.write_acked(
                        oracle.write_issued(op.lpn, payload.tobytes())
                    )
                op_done.append(end)
                ops += 1
                if ops == counted_ops:
                    counted = device_counts(ssd, before, ops)
                pace.tick(end)
            pace.mark()
    finally:
        tracer.uninstall()

    for lpn in range(ssd.logical_pages):
        wrong += not oracle.final_matches(lpn, ssd.read(lpn).tobytes())
    scale = pace.factor(window.start, window.end)
    write_ms = [latency * pace.factor(done) * 1e3 for done, latency in writes]
    write_p99_ms = stats.percentile(write_ms, 0.99)
    notes = {
        "scheme": "wom", "geometry": DEVICE_GEOMETRY,
        "utilization": DEVICE_UTILIZATION, "logical_pages": ssd.logical_pages,
        "workload": "zipf read_fraction=0.2", "counted_ops": counted_ops,
        "ops": ops, "reads": len(read_s),
        "write_p99_ms": write_p99_ms,
        "read_p50_ms": stats.median(read_s) * scale * 1e3,
        "read_p99_ms": stats.percentile(read_s, 0.99) * scale * 1e3,
        "host_writes_per_page_erase":
            counted.get("ftl.host_writes_per_page_erase", 0.0),
        "lifetime_state": ssd.lifetime_state,
        "reference_ms": pace.reference_ms(),
    }
    if not run.traced:
        metrics, notes["measured"] = end_to_end(
            total_setup(imports, setup), pace, op_done, writes
        )
    else:
        metrics, _totals = layer_metrics(tracer, window, ops)
        metrics.update(counted)
        metrics["ftl.gc_write_p50_ms"] = stats.median(gc_write_s) * 1e3
        metrics["trace.unattributed_share"] = unattributed_share(tracer, window)
        metrics = nominal(metrics, scale)
        metrics["client.write_p90_ms"] = stats.percentile(write_ms, 0.9)
        metrics["client.write_p99_ms"] = write_p99_ms
        metrics["client.read_p50_ms"] = notes["read_p50_ms"]
        metrics["client.read_p99_ms"] = notes["read_p99_ms"]
    return Outcome(
        attempted=ops + ssd.logical_pages, failed=wrong, correct=wrong == 0,
        metrics=metrics, notes=notes,
    )
