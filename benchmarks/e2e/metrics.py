"""Every workload and metric the benchmark reports, by name.

``BENCHMARK.json`` at the repo root is ``manifest()`` written out (a
self-test keeps the two equal), and ``README.md`` explains each entry.

An *op* is what the workload's caller waits for: one simulated page write
on ``table1-4k``, one host read or write everywhere else.  Layer times and
counts are divided by the ops completed in the timed window, because the
window is fixed in seconds and so absolute totals would only mirror the
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COMMAND", "END_TO_END", "PATHS", "PER_LAYER", "RUN_SECONDS",
    "SPAN_METRICS", "TABLE1_CELLS", "WORKLOADS", "Metric", "manifest",
]

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: Length of one timed window: forty 0.5 s slices, or five 4 KB Table I sweeps.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening share


WORKLOADS: dict[str, str] = {
    "table1-4k": (
        "paper's Table I at 4 KB pages, K=7: all time in coding and vcell, "
        "none in ftl, flash, server or durability"
    ),
    "device-wom-gc": (
        "in-process SSD, WOM scheme, zipf 80/20: encode is cheap so ftl GC "
        "and flash dominate and the Viterbi never runs"
    ),
    "served-mixed-journaled": (
        "closed loop, 2 connections x 16 in flight, journaled MFC device, "
        "saturated: coalescer, batch Viterbi, group commit run. No GC: MFC "
        "batch flush + GC stays uncovered until the write_batch bug is fixed"
    ),
    "served-open-write": (
        "open loop at 75 writes/s on the same server: below saturation, so "
        "the coalescer is bypassed and latency is wire + one encode + one fsync"
    ),
}

#: All bounds are the largest the contract allows.  In nominal time (see
#: ``harness.Pace``) sets of ten runs of one commit on this shared box
#: spread, interquartile range over the median, by 2 to 17% (median 5%), and
#: their medians differed by up to 11%; a bound has to be about three
#: spreads wide to mean anything.  In measured seconds the spreads were up
#: to 33% and the medians of two sets 30% apart.  ISSUE.md asked for 10 to
#: 20% and records this as a deviation.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("write_ops_per_s", "1/s", "higher", 0.25),
    Metric("write_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
)

#: Table I rows, as the per-cell metric suffixes (``/`` written as ``_``).
TABLE1_CELLS = (
    "uncoded", "redundancy-1_2", "wom", "mfc-1_2-1bpc", "mfc-1_2-2bpc",
    "mfc-2_3", "mfc-3_4", "mfc-4_5",
)

#: Layer metrics that are a plain function of one or more span names:
#: ``(metric, unit, span names, kind)``.  Kinds: ``self`` / ``total`` are
#: microseconds of self / whole-span time per op, ``calls`` is spans per
#: op, ``p50`` is the median span duration in ms, ``mean_us`` the mean
#: span duration in microseconds.  A span name also matches its labelled
#: forms (``core.lifetime_sim`` matches ``core.lifetime_sim:WOM``).
SPAN_METRICS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("coding.viterbi_search_us_per_op", "us/op",
     ("coding.viterbi_search",), "self"),
    ("coding.viterbi_calls_per_op", "1/op", ("coding.viterbi_search",), "calls"),
    ("coding.syndrome_rep_us_per_op", "us/op", ("coding.syndrome_rep",), "self"),
    ("coding.syndrome_decode_us_per_op", "us/op",
     ("coding.syndrome_decode",), "self"),
    ("coding.coset_self_us_per_op", "us/op",
     ("coding.coset_encode", "coding.coset_decode"), "self"),
    ("coding.decode_p50_ms", "ms", ("coding.coset_decode",), "p50"),
    ("coding.wom_encode_us_per_op", "us/op", ("coding.wom_encode",), "self"),
    ("coding.wom_decode_us_per_op", "us/op", ("coding.wom_decode",), "self"),
    ("vcell.levels_us_per_op", "us/op", ("vcell.levels",), "self"),
    ("vcell.program_levels_us_per_op", "us/op",
     ("vcell.program_levels",), "self"),
    ("vcell.calls_per_op", "1/op",
     ("vcell.levels", "vcell.program_levels"), "calls"),
    ("core.scheme_write_self_us_per_op", "us/op",
     ("core.scheme_write",), "self"),
    ("core.scheme_read_self_us_per_op", "us/op", ("core.scheme_read",), "self"),
    ("core.scheme_writes_per_op", "1/op", ("core.scheme_write",), "calls"),
    ("core.lifetime_sim_self_us_per_op", "us/op",
     ("core.lifetime_sim",), "self"),
    ("experiments.sweep_overhead_us_per_op", "us/op",
     ("experiments.run_table1",), "self"),
    ("ftl.write_self_us_per_op", "us/op", ("ftl.write",), "self"),
    ("ftl.read_self_us_per_op", "us/op", ("ftl.read",), "self"),
    ("flash.program_us_per_op", "us/op", ("flash.program",), "self"),
    ("flash.read_us_per_op", "us/op", ("flash.read",), "self"),
    ("flash.erase_us_per_op", "us/op", ("flash.erase",), "self"),
    ("ssd.write_self_us_per_op", "us/op", ("ssd.write",), "self"),
    ("ssd.write_batch_self_us_per_op", "us/op", ("ssd.write_batch",), "self"),
    ("ssd.read_self_us_per_op", "us/op", ("ssd.read",), "self"),
    ("ssd.checkpoint_us_per_op", "us/op", ("ssd.checkpoint",), "total"),
    ("durability.journal_append_us_per_op", "us/op",
     ("durability.journal_append",), "total"),
    ("durability.commit_us_per_op", "us/op", ("durability.commit",), "total"),
    ("durability.commit_p50_ms", "ms", ("durability.commit",), "p50"),
    ("durability.commits_per_op", "1/op", ("durability.commit",), "calls"),
    ("durability.checkpoint_self_us_per_op", "us/op",
     ("durability.checkpoint",), "self"),
    ("server.encode_request_us_per_op", "us/op",
     ("server.encode_request",), "self"),
    ("server.decode_request_us_per_op", "us/op",
     ("server.decode_request",), "self"),
    ("server.encode_response_us_per_op", "us/op",
     ("server.encode_response",), "self"),
    ("server.decode_response_us_per_op", "us/op",
     ("server.decode_response",), "self"),
    ("workload.next_op_us", "us", ("workload.next_op",), "mean_us"),
    ("workload.payload_for_us", "us", ("workload.payload_for",), "mean_us"),
)

#: Layer metrics the workloads compute themselves, from the public stats
#: objects, span values or the load generator's own records.
_COMPUTED: tuple[tuple[str, str, str], ...] = (
    ("coding.viterbi_lanes_mean", "count", "higher"),
    ("coding.encode_p50_ms", "ms", "lower"),
    ("core.unwritable_share", "share", "lower"),
    ("core.lifetime_gain", "count", "higher"),
    ("ftl.in_place_share", "share", "higher"),
    ("ftl.relocations_per_op", "1/op", "lower"),
    ("ftl.gc_runs_per_op", "1/op", "lower"),
    ("ftl.gc_relocations_per_op", "1/op", "lower"),
    ("ftl.write_amplification", "count", "lower"),
    ("ftl.host_writes_per_page_erase", "count", "higher"),
    ("ftl.gc_write_p50_ms", "ms", "lower"),
    ("flash.page_programs_per_op", "1/op", "lower"),
    ("flash.page_reads_per_op", "1/op", "lower"),
    ("flash.block_erases_per_op", "1/op", "lower"),
    ("flash.bits_programmed_per_op", "1/op", "lower"),
    ("durability.records_per_commit", "count", "higher"),
    ("durability.journal_bytes_per_host_byte", "count", "lower"),
    ("durability.checkpoints", "count", "lower"),
    ("durability.replayed_writes", "count", "lower"),
    ("durability.recovery_s", "s", "lower"),
    ("server.batches_per_op", "1/op", "lower"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.batch_size_max", "count", "higher"),
    ("server.coalesced_share", "share", "higher"),
    ("server.device_busy_share", "share", "higher"),
    ("server.idle_ms_per_op", "ms", "lower"),
    ("server.stat_rtt_p50_ms", "ms", "lower"),
    ("server.busy_rejected", "count", "lower"),
    ("client.write_p90_ms", "ms", "lower"),
    ("client.write_p99_ms", "ms", "lower"),
    ("client.read_p50_ms", "ms", "lower"),
    ("client.read_p99_ms", "ms", "lower"),
    ("loadgen.over_limit_share", "share", "lower"),
    ("loadgen.late_p95_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
)

PER_LAYER: tuple[Metric, ...] = (
    tuple(
        Metric(name, unit, "lower")
        for name, unit, _spans, _kind in SPAN_METRICS
    )
    + tuple(Metric(name, unit, better) for name, unit, better in _COMPUTED)
    + tuple(Metric(f"experiments.cell_s.{cell}", "s", "lower")
            for cell in TABLE1_CELLS)
)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
