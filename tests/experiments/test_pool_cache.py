"""Tests for sweep cells and the content-addressed result cache."""

from __future__ import annotations

import os

import pytest

from repro.cache import (
    ResultCache,
    cache_key,
    code_fingerprint,
    default_cache_dir,
    get_default_cache,
)
from repro.coding.kernels import BACKEND_ENV, available_backends
from repro.errors import ConfigurationError
from repro.experiments import engine, pool
from repro.experiments.config import ExperimentConfig
from repro.experiments.pool import (
    SweepCell,
    SweepCellError,
    cell_for,
    cell_key,
    run_cell,
    run_cells,
)
from repro.experiments.runner import main
from repro.obs import registry as obs

FAST_ARGS = ["--page-bytes", "96", "--cycles", "1", "--constraint-length", "3"]


def _config(**overrides) -> ExperimentConfig:
    base = dict(page_bytes=96, cycles=1, seed=11, constraint_length=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def _cells(config: ExperimentConfig) -> list[SweepCell]:
    return [
        cell_for("uncoded", config),
        cell_for("wom", config),
        cell_for("mfc-1/2-1bpc", config, constraint_length=3),
    ]


class TestCacheStore:
    def test_dir_respects_env_override(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_default_dir_is_outside_the_repo(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        resolved = default_cache_dir().resolve()
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        assert not str(resolved).startswith(os.path.abspath(repo_root))

    def test_roundtrip_and_stats(self, tmp_path) -> None:
        cache = ResultCache(root=tmp_path / "c")
        key = cache_key({"a": 1})
        assert cache.get(key) is None
        cache.put(key, {"payload": [1, 2, 3]})
        assert cache.get(key) == {"payload": [1, 2, 3]}
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (
            1,
            1,
            1,
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path) -> None:
        cache = ResultCache(root=tmp_path / "c")
        key = cache_key({"a": 1})
        cache.put(key, "value")
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_clear_removes_entries(self, tmp_path) -> None:
        cache = ResultCache(root=tmp_path / "c")
        cache.put(cache_key({"a": 1}), "value")
        assert cache.entry_count() == 1
        cache.clear()
        assert cache.entry_count() == 0

    def test_get_default_cache_follows_env(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "one"))
        first = get_default_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "two"))
        second = get_default_cache()
        assert first is not second
        assert get_default_cache() is second


class TestCellKeys:
    def test_key_depends_on_every_knob(self) -> None:
        base = SweepCell("wom", 768, 1, 11)
        variants = [
            SweepCell("uncoded", 768, 1, 11),
            SweepCell("wom", 1024, 1, 11),
            SweepCell("wom", 768, 2, 11),
            SweepCell("wom", 768, 1, 12),
            SweepCell("wom", 768, 1, 11, lanes=2),
            SweepCell("wom", 768, 1, 11, kwargs=(("x", 1),)),
        ]
        keys = {cell_key(cell) for cell in variants}
        assert cell_key(base) not in keys
        assert len(keys) == len(variants)

    def test_key_includes_code_fingerprint(self) -> None:
        cell = SweepCell("wom", 768, 1, 11)
        fingerprint = code_fingerprint()
        assert len(fingerprint) == 64
        # Same cell, same code -> same address (stable across processes).
        assert cell_key(cell) == cell_key(SweepCell("wom", 768, 1, 11))


def test_code_fingerprint_covers_the_c_kernel(tmp_path, monkeypatch) -> None:
    """Editing ``_viterbi.c`` changes results' provenance like any ``.py``."""
    import repro

    (tmp_path / "__init__.py").write_text("")
    kernel = tmp_path / "coding" / "_viterbi.c"
    kernel.parent.mkdir()
    kernel.write_text("int forward(void);")
    monkeypatch.setattr(repro, "__file__", str(tmp_path / "__init__.py"))
    code_fingerprint.cache_clear()
    try:
        before = code_fingerprint()
        kernel.write_text("int forward(int);")
        code_fingerprint.cache_clear()
        assert code_fingerprint() != before
    finally:
        code_fingerprint.cache_clear()


class TestRunCells:
    def test_cold_then_warm(self) -> None:
        config = _config()
        cache = get_default_cache()
        cold = run_cells(_cells(config), config)
        assert cache.stats.misses == 3 and cache.stats.stores == 3
        warm = run_cells(_cells(config), config)
        assert cache.stats.hits == 3
        for a, b in zip(cold, warm):
            assert a.writes_per_cycle == b.writes_per_cycle

    def test_cache_disabled_writes_nothing(self) -> None:
        config = _config(cache=False)
        run_cells(_cells(config), config)
        assert get_default_cache().entry_count() == 0

    def test_source_change_invalidates(self, monkeypatch) -> None:
        config = _config()
        run_cells(_cells(config), config)
        # Simulate a code edit by forcing a different fingerprint.
        monkeypatch.setattr(
            "repro.experiments.pool.code_fingerprint", lambda: "0" * 64
        )
        cache = get_default_cache()
        before = cache.stats.snapshot()
        run_cells(_cells(config), config)
        delta = cache.stats.since(before)
        assert delta.hits == 0 and delta.misses == 3

    def test_run_cell_is_deterministic(self) -> None:
        cell = cell_for("mfc-1/2-1bpc", _config(), constraint_length=3)
        assert (
            run_cell(cell).writes_per_cycle == run_cell(cell).writes_per_cycle
        )

    def test_repeated_cells_build_scheme_tables_once(self) -> None:
        registry = obs.get_registry()
        registry.enabled = True
        registry.reset()
        cells = [
            SweepCell(scheme="mfc-1/2-1bpc", page_bits=192, cycles=1, seed=s)
            for s in range(3)
        ]
        run_cells(cells, cache=False)
        run_cells(cells, cache=False)
        snap = registry.snapshot()
        builds = [e for e in snap.events if e["name"] == "sweep.scheme_build"]
        assert len(builds) == 1
        assert snap.counters["sweep.cells_run"] == 2 * len(cells)

    def test_failure_names_the_cell(self) -> None:
        cells = [
            SweepCell(scheme="wom", page_bits=192, cycles=1, seed=1),
            SweepCell(scheme="no-such-scheme", page_bits=192, cycles=1, seed=3),
        ]
        with pytest.raises(
            SweepCellError, match=r"scheme='no-such-scheme'.*seed=3"
        ):
            run_cells(cells, cache=False)

    def test_cell_key_computed_once_per_cell(self, monkeypatch) -> None:
        calls = {"count": 0}
        original = pool.cell_key

        def counting_cell_key(cell, fingerprint=None):
            calls["count"] += 1
            return original(cell, fingerprint)

        monkeypatch.setattr(pool, "cell_key", counting_cell_key)
        cells = _cells(_config())
        run_cells(cells, cache=get_default_cache())
        assert calls["count"] == len(cells)  # probe and store share keys


def test_engine_scheme_memo_identity_and_clear() -> None:
    first = engine.scheme_for("mfc-1/2-1bpc", 192)
    assert engine.scheme_for("mfc-1/2-1bpc", 192) is first
    engine.clear_scheme_memo()
    assert engine.scheme_for("mfc-1/2-1bpc", 192) is not first


def test_scheme_memo_is_keyed_on_the_backend(monkeypatch) -> None:
    """A scheme binds its kernel backend when built; the memo must not
    hand a numpy-backed one to a sweep that asked for ``native``."""
    if "native" not in available_backends():
        pytest.skip("needs two backends; the C kernel does not build here")
    for name in ("numpy", "native", "numpy"):
        monkeypatch.setenv(BACKEND_ENV, name)
        scheme = engine.scheme_for("mfc-1/2-1bpc", 192)
        assert scheme.code.viterbi.backend.name == name


def test_config_rejects_more_than_one_process() -> None:
    with pytest.raises(ConfigurationError, match="one process"):
        ExperimentConfig(jobs=2)


class TestCliIntegration:
    def test_runner_reports_cache_and_jobs(self, capsys) -> None:
        assert main(["table1", *FAST_ARGS]) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hits, 8 misses" in cold and "jobs=" not in cold
        assert main(["table1", *FAST_ARGS]) == 0
        warm = capsys.readouterr().out
        assert "cache: 8 hits, 0 misses" in warm

    def test_runner_no_cache_flag(self, capsys) -> None:
        assert main(["table1", *FAST_ARGS, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache: disabled" in out
        assert get_default_cache().entry_count() == 0
