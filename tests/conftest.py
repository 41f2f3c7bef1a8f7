"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash import FlashChip, FlashGeometry, MLC, SLC, TLC
from repro.obs import registry as obs_registry


@pytest.fixture(autouse=True)
def _isolated_metrics_registry() -> None:
    """Start every test with a disabled, zeroed metrics registry.

    The registry is process-global and permanent; tests that enable it
    must not leak counts (or the enabled flag) into their neighbors.
    """
    registry = obs_registry.get_registry()
    registry.enabled = False
    registry.trace_sample_every = 1
    registry.reset()
    yield
    registry.enabled = False
    registry.trace_sample_every = 1
    registry.reset()


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch) -> None:
    """Point the experiment result cache at a per-test directory.

    Keeps the suite hermetic: no test reads another test's (or the
    user's) cached simulation results, and nothing is written under the
    real user-cache dir.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture(autouse=True)
def _isolated_scheme_memo() -> None:
    """Clear the experiments' scheme memo after every test.

    The memo is process-lifetime by design; tests that count
    ``sweep.scheme_build`` spans must not see a neighbor's schemes.
    """
    yield
    from repro.experiments import engine

    engine.clear_scheme_memo()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_geometry() -> FlashGeometry:
    """A tiny MLC chip so substrate tests run fast."""
    return FlashGeometry(blocks=2, pages_per_block=4, page_bits=64, erase_limit=10)


@pytest.fixture
def chip(small_geometry: FlashGeometry) -> FlashChip:
    return FlashChip(small_geometry)


@pytest.fixture
def slc_chip() -> FlashChip:
    return FlashChip(FlashGeometry(blocks=2, pages_per_block=4, page_bits=64,
                                   erase_limit=10, cell=SLC))


@pytest.fixture
def tlc_chip() -> FlashChip:
    return FlashChip(FlashGeometry(blocks=2, pages_per_block=6, page_bits=64,
                                   erase_limit=10, cell=TLC))
