"""End-to-end checks that the device run publishes its stats into the registry."""

from __future__ import annotations

import pytest

from repro.faults import FaultProfile
from repro.flash import FlashGeometry
from repro.obs import registry as obs
from repro.ssd.device import SSD
from repro.ssd.simulator import run_until_death
from repro.workload import UniformWorkload


@pytest.fixture
def enabled_registry():
    registry = obs.get_registry()
    registry.enabled = True
    registry.reset()
    return registry


class TestDevicePathInstrumentation:
    def test_ssd_run_absorbs_ftl_stats(self, enabled_registry):
        ssd = SSD(scheme="wom")
        workload = UniformWorkload(ssd.logical_pages, seed=1)
        result = run_until_death(ssd, workload, max_writes=500)
        snap = enabled_registry.snapshot()
        assert snap.counters["ftl.host_writes"] == result.host_writes
        assert snap.counters["flash.block_erases"] == result.block_erases
        assert snap.counters["flash.bits_programmed"] == result.bits_programmed
        assert snap.gauges["flash.max_block_erases"] > 0
        assert snap.counters["ftl.gc_runs"] > 0
        assert "ssd.run_until_death" in {event["name"] for event in snap.events}

    def test_every_stats_field_equals_its_counter_after_a_run(
        self, enabled_registry
    ):
        geometry = FlashGeometry(
            blocks=8, pages_per_block=8, page_bits=384, erase_limit=25
        )
        ssd = SSD(
            geometry=geometry,
            scheme="wom",
            fault_profile=FaultProfile(
                transient_program_failure_rate=0.01, read_disturb_rate=1e-4
            ),
            fault_seed=3,
        )
        run_until_death(
            ssd, UniformWorkload(ssd.logical_pages, seed=1), scrub_interval=50
        )
        assert ssd.ftl.stats.gc_runs > 0
        assert ssd.faults.counters.disturb_events > 0
        counters = enabled_registry.snapshot().counters
        for prefix, stats in (
            ("ftl", ssd.ftl.stats),
            ("flash", ssd.chip.stats),
            ("faults", ssd.faults.counters),
        ):
            for name, value in vars(stats).items():
                if isinstance(value, int):
                    assert counters.get(f"{prefix}.{name}", 0) == value, (
                        prefix, name,
                    )
        # A maximum is a gauge, never a summed counter.
        assert "flash.max_block_erases" not in counters

    def test_disabled_device_run_is_silent(self):
        registry = obs.get_registry()
        registry.enabled = False
        registry.reset()
        ssd = SSD(scheme="wom")
        run_until_death(ssd, UniformWorkload(ssd.logical_pages, seed=1), max_writes=200)
        snap = registry.snapshot()
        assert snap.counters == {}
        assert snap.events == ()
