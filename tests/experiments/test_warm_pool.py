"""The warm persistent pool: chunked dispatch, memo reuse, result transport."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.experiments import engine
from repro.experiments import pool
from repro.experiments.pool import (
    SweepCell,
    SweepCellError,
    run_cells,
)
from repro.obs import registry as obs

class PidCell:
    """Generic cell reporting which process ran it (never cached)."""

    cacheable = False

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def key_payload(self) -> dict:
        return {"kind": "pid-cell", "tag": self.tag}

    def run(self) -> int:
        return os.getpid()


class BigArrayCell:
    """Generic cell returning a large deterministic array (512 KiB)."""

    cacheable = False

    def __init__(self, seed: int, size: int = 1 << 16) -> None:
        self.seed = seed
        self.size = size

    def key_payload(self) -> dict:
        return {"kind": "big-array-cell", "seed": self.seed, "size": self.size}

    def run(self) -> np.ndarray:
        return np.random.default_rng(self.seed).integers(
            0, 1000, self.size, dtype=np.int64
        )


class ExplodingCell:
    """Generic cell that always fails."""

    cacheable = False

    def key_payload(self) -> dict:
        return {"kind": "exploding-cell"}

    def run(self) -> None:
        raise ValueError("boom from inside the worker")


def _lifetime_cells(count: int) -> list[SweepCell]:
    schemes = ("mfc-1/2-1bpc", "mfc-2/3")
    return [
        SweepCell(
            scheme=schemes[i % len(schemes)],
            page_bits=192,
            cycles=1,
            seed=10 + i,
        )
        for i in range(count)
    ]


class TestChunkedByteIdentity:
    def test_jobs3_identical_to_serial_across_chunks(self) -> None:
        """10 cells over 3 workers lands in every chunk-boundary shape."""
        cells = _lifetime_cells(10)
        serial = run_cells(cells, jobs=1, cache=False)
        fanned = run_cells(cells, jobs=3, cache=False)
        for left, right in zip(serial, fanned):
            assert left.writes_per_cycle == right.writes_per_cycle
            assert left.scheme_name == right.scheme_name
            # Byte-identity of the whole result object, traces included.
            assert pickle.dumps(left) == pickle.dumps(right)

    def test_chunk_sizes_partition_exactly(self) -> None:
        for count in (1, 2, 3, 7, 8, 9, 100):
            for jobs in (1, 2, 4):
                sizes = pool._chunk_sizes(count, jobs)
                assert sum(sizes) == count
                assert len(sizes) <= 4 * jobs
                assert all(size >= 1 for size in sizes)
                assert max(sizes) - min(sizes) <= 1


class TestWarmPoolLifecycle:
    def test_workers_persist_across_run_cells_calls(self) -> None:
        first = set(run_cells([PidCell(i) for i in range(8)], jobs=2, cache=False))
        executor = pool._pool
        assert executor is not None
        second = set(run_cells([PidCell(i) for i in range(8)], jobs=2, cache=False))
        # Same executor object, and no worker was respawned in between.
        # Which of the resident workers happen to serve a call is the
        # executor's business: it only starts one when none is idle.
        assert pool._pool is executor
        assert len(first | second) <= 2
        assert os.getpid() not in first | second

    def test_jobs_change_rebuilds_pool(self) -> None:
        run_cells([PidCell(i) for i in range(4)], jobs=2, cache=False)
        executor = pool._pool
        run_cells([PidCell(i) for i in range(4)], jobs=3, cache=False)
        assert pool._pool is not executor

    def test_shutdown_is_idempotent_and_recoverable(self) -> None:
        run_cells([PidCell(i) for i in range(4)], jobs=2, cache=False)
        pool.shutdown()
        assert pool._pool is None
        pool.shutdown()  # second call is a no-op
        results = run_cells([PidCell(i) for i in range(4)], jobs=2, cache=False)
        assert len(results) == 4


class TestWorkerMemoReuse:
    def test_scheme_tables_built_at_most_once_per_worker(self) -> None:
        registry = obs.get_registry()
        registry.enabled = True
        registry.reset()
        cells = [
            SweepCell(scheme="mfc-1/2-1bpc", page_bits=192, cycles=1, seed=s)
            for s in range(8)
        ]
        run_cells(cells, jobs=2, cache=False)
        run_cells(cells, jobs=2, cache=False)
        snap = registry.snapshot()
        assert snap.counters["sweep.cells_run"] == 2 * len(cells)
        builds = [e for e in snap.events if e["name"] == "sweep.scheme_build"]
        # One scheme config, two workers: each builds its tables at most
        # once over BOTH calls — chunk two onward reuses the worker memo.
        assert 1 <= len(builds) <= 2
        assert len({e["pid"] for e in builds}) == len(builds)

    def test_serial_memo_reuse_is_exact(self) -> None:
        registry = obs.get_registry()
        registry.enabled = True
        registry.reset()
        cells = [
            SweepCell(scheme="mfc-1/2-1bpc", page_bits=192, cycles=1, seed=s)
            for s in range(3)
        ]
        run_cells(cells, jobs=1, cache=False)
        run_cells(cells, jobs=1, cache=False)
        snap = registry.snapshot()
        builds = [e for e in snap.events if e["name"] == "sweep.scheme_build"]
        assert len(builds) == 1
        assert snap.counters["sweep.cells_run"] == 2 * len(cells)


class TestLargeResults:
    def test_arrays_return_intact_and_in_order(self) -> None:
        cells = [BigArrayCell(seed) for seed in range(6)]
        results = run_cells(cells, jobs=2, cache=False)
        for cell, result in zip(cells, results):
            assert np.array_equal(result, cell.run())


class TestWorkerFailures:
    def test_failure_names_the_cell(self) -> None:
        cells = _lifetime_cells(4) + [
            SweepCell(scheme="no-such-scheme", page_bits=192, cycles=1, seed=3)
        ]
        with pytest.raises(
            SweepCellError, match=r"scheme='no-such-scheme'.*seed=3"
        ):
            run_cells(cells, jobs=2, cache=False)
        # The pool is not poisoned: the same warm workers keep serving.
        results = run_cells(_lifetime_cells(4), jobs=2, cache=False)
        assert all(result is not None for result in results)

    def test_generic_cell_failure_names_the_type(self) -> None:
        cells = [PidCell(0), ExplodingCell(), PidCell(1)]
        with pytest.raises(SweepCellError, match="ExplodingCell"):
            run_cells(cells, jobs=2, cache=False)

    def test_serial_failures_are_wrapped_too(self) -> None:
        cell = SweepCell(scheme="no-such-scheme", page_bits=192, cycles=1, seed=0)
        with pytest.raises(SweepCellError, match="no-such-scheme"):
            run_cells([cell], jobs=1, cache=False)


class TestKeyMemoization:
    def test_cell_key_computed_once_per_cell(self, monkeypatch) -> None:
        calls = {"count": 0}
        original = pool.cell_key

        def counting_cell_key(cell, fingerprint=None):
            calls["count"] += 1
            return original(cell, fingerprint)

        monkeypatch.setattr(pool, "cell_key", counting_cell_key)
        from repro.cache import get_default_cache

        cells = _lifetime_cells(4)
        run_cells(cells, jobs=1, cache=get_default_cache())
        assert calls["count"] == len(cells)  # probe and store share keys


def test_engine_scheme_memo_identity_and_cap() -> None:
    first = engine.scheme_for("mfc-1/2-1bpc", 192)
    assert engine.scheme_for("mfc-1/2-1bpc", 192) is first
    engine.clear_scheme_memo()
    assert engine.scheme_for("mfc-1/2-1bpc", 192) is not first
