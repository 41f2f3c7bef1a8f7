"""Tests for sweep cells: the scheme memo, determinism and failure naming.

A sweep cell is one :func:`repro.experiments.engine.simulate` call.
"""

from __future__ import annotations

import pytest

from repro.coding.kernels import BACKEND_ENV, available_backends
from repro.errors import ConfigurationError
from repro.experiments import engine
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import SweepError, simulate
from repro.obs import registry as obs


def _config(**overrides) -> ExperimentConfig:
    base = dict(page_bytes=24, cycles=1, seed=11, constraint_length=3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunCells:
    def test_run_cell_is_deterministic(self) -> None:
        first = simulate("mfc-1/2-1bpc", _config())
        engine.clear_scheme_memo()
        second = simulate("mfc-1/2-1bpc", _config())
        assert first.writes_per_cycle == second.writes_per_cycle

    def test_repeated_cells_build_scheme_tables_once(self) -> None:
        registry = obs.get_registry()
        registry.enabled = True
        registry.reset()
        for _ in range(2):
            for seed in range(3):
                simulate("mfc-1/2-1bpc", _config(seed=seed))
        snap = registry.snapshot()
        builds = [e for e in snap.events if e["name"] == "sweep.scheme_build"]
        assert len(builds) == 1
        assert snap.counters["sweep.cells_run"] == 2 * 3

    def test_failure_names_the_cell(self) -> None:
        simulate("wom", _config(seed=1))
        with pytest.raises(
            SweepError, match=r"scheme='no-such-scheme'.*seed=3"
        ):
            simulate("no-such-scheme", _config(seed=3))


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


def test_config_rejects_the_result_cache() -> None:
    with pytest.raises(ConfigurationError, match="no result cache"):
        ExperimentConfig(cache=True)
