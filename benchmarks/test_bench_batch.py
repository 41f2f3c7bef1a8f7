"""Batched execution engine throughput versus the scalar reference.

The tentpole claim of the array-first refactor: a ``B = 64`` batched
lifetime simulation of the paper's rate-1/2 MFC must beat the throughput
of 64 sequential scalar runs by a wide margin, with identical results
(see ``MIN_SPEEDUP_AT_64`` for the current bar and why it moved).  The
measurements (writes/sec, cells/sec, speedup) land in ``BENCH_coding.json``
via the session ``perf_recorder`` fixture.
"""

from __future__ import annotations

import time

import pytest

from repro.core import BatchLifetimeSimulator, LifetimeSimulator, make_scheme

#: Bench geometry: small page + small trellis so the whole sweep stays fast;
#: the speedup grows with page size (more steps amortized per array op).
PAGE_BITS = 1024
CONSTRAINT_LENGTH = 5
BASE_SEED = 100
BATCH_SIZES = (1, 16, 64)
# Every speed-up of the scalar engine (fused Viterbi cost tables, the
# slice-XOR syndrome division, column-wise v-cell programming) shrinks
# batching's relative advantage even as absolute batched throughput
# improves.  The bar below guards against regressions in the batched
# path, not a historical ratio.
MIN_SPEEDUP_AT_64 = 2.5


@pytest.fixture(scope="module")
def scheme():
    return make_scheme(
        "mfc-1/2-1bpc", PAGE_BITS, constraint_length=CONSTRAINT_LENGTH
    )


def run_scalar(scheme, lanes: int) -> tuple[int, float]:
    """``lanes`` sequential scalar runs; returns (total writes, seconds)."""
    start = time.perf_counter()
    writes = 0
    for lane in range(lanes):
        result = LifetimeSimulator(scheme, seed=BASE_SEED + lane).run(cycles=1)
        writes += sum(result.writes_per_cycle)
    return writes, time.perf_counter() - start


def run_batched(scheme, lanes: int) -> tuple[int, float]:
    """One batched run over ``lanes`` lanes; returns (total writes, seconds)."""
    start = time.perf_counter()
    result = BatchLifetimeSimulator(scheme, lanes=lanes, seed=BASE_SEED).run(
        cycles=1
    )
    return sum(result.writes_per_cycle), time.perf_counter() - start


@pytest.mark.parametrize("lanes", BATCH_SIZES)
def test_bench_batch_vs_scalar(scheme, perf_recorder, lanes: int) -> None:
    num_cells = scheme.code.varray.num_cells
    scalar_writes, scalar_seconds = run_scalar(scheme, lanes)
    batched_writes, batched_seconds = run_batched(scheme, lanes)
    # Per-lane seeding makes the batched run reproduce the scalar runs
    # exactly, so the two timings cover identical work.
    assert batched_writes == scalar_writes
    speedup = scalar_seconds / batched_seconds
    perf_recorder.record(
        f"lifetime-{scheme.name}-B{lanes}",
        lanes=lanes,
        page_bits=PAGE_BITS,
        constraint_length=CONSTRAINT_LENGTH,
        total_writes=scalar_writes,
        scalar_seconds=scalar_seconds,
        batched_seconds=batched_seconds,
        scalar_writes_per_sec=scalar_writes / scalar_seconds,
        batched_writes_per_sec=batched_writes / batched_seconds,
        scalar_cells_per_sec=scalar_writes * num_cells / scalar_seconds,
        batched_cells_per_sec=batched_writes * num_cells / batched_seconds,
        speedup=speedup,
    )
    if lanes >= 64:
        assert speedup >= MIN_SPEEDUP_AT_64, (
            f"B={lanes} batched run only {speedup:.1f}x the sequential "
            f"scalar throughput (required {MIN_SPEEDUP_AT_64}x)"
        )
