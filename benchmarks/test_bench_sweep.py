"""Sweep wall-clock: cold vs warm result cache.

A reduced Table I sweep (small page, one cycle) exercises cell
decomposition and the content-addressed cache.  Hard claim asserted: a
warm-cache rerun of the same sweep completes at least 5x faster than the
cold run, with identical formatted output.  The timings land in
``BENCH_coding.json`` either way.
"""

from __future__ import annotations

import time

import pytest

from repro.cache import get_default_cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.table1 import format_table1, run_table1

#: Reduced sweep geometry: big enough that simulation time dwarfs the
#: cache round-trip, small enough to stay a smoke test.
PAGE_BYTES = 192
CYCLES = 1
CONSTRAINT_LENGTH = 5
MIN_WARM_SPEEDUP = 5.0


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """A fresh cache dir so cold really means cold."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return get_default_cache()


def test_bench_sweep_cold_vs_warm(perf_recorder, isolated_cache) -> None:
    config = ExperimentConfig(
        page_bytes=PAGE_BYTES,
        cycles=CYCLES,
        seed=31,
        constraint_length=CONSTRAINT_LENGTH,
        cache=True,
    )
    start = time.perf_counter()
    cold_rows = run_table1(config)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm_rows = run_table1(config)
    warm_seconds = time.perf_counter() - start
    assert format_table1(cold_rows) == format_table1(warm_rows)
    assert isolated_cache.stats.hits == len(cold_rows)
    speedup = cold_seconds / warm_seconds
    perf_recorder.record(
        "sweep-table1-warm-cache",
        page_bytes=PAGE_BYTES,
        cycles=CYCLES,
        constraint_length=CONSTRAINT_LENGTH,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        speedup=speedup,
    )
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm-cache rerun only {speedup:.1f}x faster than the cold run "
        f"(required {MIN_WARM_SPEEDUP}x)"
    )
