"""Sweep telemetry: what ``engine.simulate`` counts, and that off means off."""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import simulate
from repro.obs import registry as obs

CONFIG = ExperimentConfig(page_bytes=32, cycles=2, seed=0, lanes=2)


def test_disabled_telemetry_produces_zero_events_and_counters():
    registry = obs.get_registry()
    registry.enabled = False
    registry.reset()
    simulate("mfc-1/2-1bpc", CONFIG)
    snap = registry.snapshot()
    assert snap.counters == {}
    assert snap.histograms == {}
    assert snap.events == ()


def test_sweep_publishes_only_sweep_telemetry():
    """The coding, v-cell, core and FTL layers publish nothing: a sweep's
    trace is the sweep's spans, its counters the sweep's."""
    registry = obs.get_registry()
    registry.enabled = True
    registry.reset()
    simulate("mfc-1/2-1bpc", CONFIG)
    snap = registry.snapshot()
    names = {event["name"] for event in snap.events}
    assert "sweep.cell" in names
    assert all(name.startswith("sweep.") for name in names)
    assert snap.counters == {"sweep.cells_run": 1}
