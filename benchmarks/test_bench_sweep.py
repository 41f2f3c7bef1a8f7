"""Sweep-fabric wall-clock: cold vs warm cache, serial vs warm-pool fan-out.

A reduced Table I sweep (small page, one cycle) exercises the whole
fabric — cell decomposition, the content-addressed cache, and the
``--jobs`` fan-out over the process-lifetime warm worker pool.  Hard
claims asserted:

* a warm-cache rerun of the same sweep completes at least 5x faster than
  the cold run, with identical formatted output;
* ``jobs=N`` produces byte-identical output to ``jobs=1`` for every
  measured configuration;
* on a multi-core box, a warm-pool ``jobs=2`` run of a chunky sweep
  beats serial wall-clock (``sweep-table1-jobs-warm``).  Speedup asserts
  are gated on ``os.sched_getaffinity`` — a single-core CI box records
  honest numbers but cannot physically go faster than serial.

All timings land in ``BENCH_coding.json`` either way.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cache import get_default_cache
from repro.experiments import pool
from repro.experiments.config import ExperimentConfig
from repro.experiments.table1 import format_table1, run_table1

#: Reduced sweep geometry: big enough that simulation time dwarfs the
#: cache round-trip, small enough to stay a smoke test.
PAGE_BYTES = 192
CYCLES = 1
CONSTRAINT_LENGTH = 5
MIN_WARM_SPEEDUP = 5.0


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        page_bytes=PAGE_BYTES,
        cycles=CYCLES,
        seed=31,
        constraint_length=CONSTRAINT_LENGTH,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """A fresh cache dir so cold really means cold."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return get_default_cache()


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every benchmark starts and ends without resident workers."""
    pool.shutdown()
    yield
    pool.shutdown()


def test_bench_sweep_cold_vs_warm(perf_recorder, isolated_cache) -> None:
    config = _config(jobs=1, cache=True)
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


def test_bench_sweep_jobs_fanout(perf_recorder) -> None:
    """jobs=4 vs serial on the reduced Table I sweep.

    The first parallel run pays worker spawn (``jobs4_cold_seconds``);
    the rerun uses the resident pool (``jobs4_seconds``) — that warm
    number is what ``--jobs`` costs in any real multi-sweep session, and
    the recorded ``speedup`` is measured against it.
    """
    serial_config = _config(jobs=1, cache=False)
    fanned_config = _config(jobs=4, cache=False)
    start = time.perf_counter()
    serial_rows = run_table1(serial_config)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    cold_rows = run_table1(fanned_config)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    fanned_rows = run_table1(fanned_config)
    fanned_seconds = time.perf_counter() - start
    assert format_table1(serial_rows) == format_table1(fanned_rows)
    assert format_table1(serial_rows) == format_table1(cold_rows)
    speedup = serial_seconds / fanned_seconds
    perf_recorder.record(
        "sweep-table1-jobs",
        page_bytes=PAGE_BYTES,
        cycles=CYCLES,
        constraint_length=CONSTRAINT_LENGTH,
        cpus=_cpus(),
        jobs1_seconds=serial_seconds,
        jobs4_cold_seconds=cold_seconds,
        jobs4_seconds=fanned_seconds,
        speedup=speedup,
    )
    if _cpus() >= 4:
        assert speedup >= 1.5, (
            f"warm jobs=4 only {speedup:.2f}x vs serial on a "
            f"{_cpus()}-core box (required 1.5x)"
        )


def test_bench_sweep_jobs_warm_pool(perf_recorder) -> None:
    """A chunkier sweep (more cycles) where a warm jobs=2 pool beats serial.

    Recorded everywhere with ``cpus``; asserted only at 4+ cores, like
    ``sweep-table1-jobs``: on two CPUs the parent and both workers share
    the cores and the ratio sits at 1.0 either side of noise.

    Both sides run twice and the faster pass counts, so worker spawn,
    scheme-table construction, and allocator warm-up are off the clock
    for serial and parallel alike.
    """
    serial_config = _config(jobs=1, cache=False, cycles=2)
    fanned_config = _config(jobs=2, cache=False, cycles=2)
    serial_seconds = []
    fanned_seconds = []
    serial_rows = fanned_rows = None
    for _ in range(2):
        start = time.perf_counter()
        serial_rows = run_table1(serial_config)
        serial_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        fanned_rows = run_table1(fanned_config)
        fanned_seconds.append(time.perf_counter() - start)
    assert format_table1(serial_rows) == format_table1(fanned_rows)
    speedup = min(serial_seconds) / min(fanned_seconds)
    perf_recorder.record(
        "sweep-table1-jobs-warm",
        page_bytes=PAGE_BYTES,
        cycles=2,
        constraint_length=CONSTRAINT_LENGTH,
        cpus=_cpus(),
        jobs1_seconds=min(serial_seconds),
        jobs2_seconds=min(fanned_seconds),
        speedup=speedup,
    )
    if _cpus() >= 4:
        assert speedup > 1.0, (
            f"warm jobs=2 pool did not beat serial ({speedup:.2f}x) on a "
            f"{_cpus()}-core box"
        )
