"""Sweep telemetry: what ``run_cells`` counts, and that off means off."""

from __future__ import annotations

from repro.obs import registry as obs
from repro.experiments.pool import SweepCell, run_cells

CELLS = [
    SweepCell(scheme="mfc-1/2-1bpc", page_bits=256, cycles=2, seed=0, lanes=2)
]


def test_disabled_telemetry_produces_zero_events_and_counters():
    registry = obs.get_registry()
    registry.enabled = False
    registry.reset()
    run_cells(CELLS, cache=False)
    snap = registry.snapshot()
    assert snap.counters == {}
    assert snap.histograms == {}
    assert snap.events == ()


def test_sweep_publishes_only_sweep_telemetry():
    """The coding, v-cell, core and FTL layers publish nothing: a sweep's
    trace is the sweep's spans, its counters the sweep's and the cache's."""
    registry = obs.get_registry()
    registry.enabled = True
    registry.reset()
    run_cells(CELLS, cache=False)
    snap = registry.snapshot()
    names = {event["name"] for event in snap.events}
    assert "sweep.cell" in names
    assert all(name.startswith("sweep.") for name in names)
    assert snap.counters
    assert all(name.startswith(("sweep.", "cache.")) for name in snap.counters)


def test_cache_hits_skip_simulation_counters():
    registry = obs.get_registry()
    registry.enabled = True
    registry.reset()
    from repro.cache import get_default_cache

    cache = get_default_cache()
    run_cells(CELLS, cache=cache)
    first = registry.snapshot()
    assert first.counters["sweep.cells_run"] == 1
    registry.reset()
    run_cells(CELLS, cache=cache)
    warm = registry.snapshot()
    assert warm.counters.get("sweep.cells_run") is None
    assert warm.counters["sweep.cells_cached"] == 1
    assert warm.counters["cache.hits"] == 1
