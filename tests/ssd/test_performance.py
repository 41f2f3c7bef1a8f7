"""Tests for the NAND timing/performance model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.flash import FlashGeometry
from repro.ssd import SSD, run_until_death
from repro.ssd.performance import NandTimings, analyze_performance
from repro.workload import UniformWorkload

GEOM = FlashGeometry(blocks=6, pages_per_block=4, page_bits=192, erase_limit=2000)


def device_report(scheme: str, max_writes=1500):
    ssd = SSD(geometry=GEOM, scheme=scheme, utilization=0.5)
    result = run_until_death(
        ssd, UniformWorkload(ssd.logical_pages, seed=1), max_writes=max_writes
    )
    stats = ssd.chip.stats
    return analyze_performance(
        result,
        page_programs=stats.page_programs,
        page_reads=stats.page_reads,
        block_erases=stats.block_erases,
    )


class TestNandTimings:
    def test_defaults_positive(self) -> None:
        timings = NandTimings()
        assert timings.erase_us > timings.program_us > timings.read_us

    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            NandTimings(read_us=0)


class TestPerformanceReport:
    def test_accounting_adds_up(self) -> None:
        report = device_report("uncoded")
        assert report.total_flash_us == pytest.approx(
            report.program_us + report.read_us + report.erase_us
        )
        assert 0 <= report.erase_share <= 1

    def test_wom_spends_less_on_erases_per_host_write(self) -> None:
        """Rewriting halves the erase pressure per host write."""
        uncoded = device_report("uncoded")
        wom = device_report("wom")
        erase_per_write_uncoded = uncoded.erase_us / uncoded.host_writes
        erase_per_write_wom = wom.erase_us / wom.host_writes
        assert erase_per_write_wom < 0.7 * erase_per_write_uncoded

    def test_rewriting_adds_read_overhead(self) -> None:
        """The Section VI cost: in-place rewrites need read-modify-write."""
        uncoded = device_report("uncoded")
        wom = device_report("wom")
        assert wom.read_us / wom.host_writes > uncoded.read_us / max(
            uncoded.host_writes, 1
        )

    def test_dead_device_reports_infinite_cost(self) -> None:
        report = device_report("uncoded", max_writes=1500)
        assert report.per_host_write_us > 0
