"""snapshot() on the stats dataclasses (FlashStats, FTLStats)."""

from __future__ import annotations

from repro.flash.stats import FlashStats
from repro.ftl.ftl import FTLStats


class TestFlashStats:
    def test_snapshot_is_independent(self):
        stats = FlashStats()
        stats.record_program(5)
        snap = stats.snapshot()
        stats.record_program(3)
        assert snap.page_programs == 1
        assert snap.bits_programmed == 5
        assert stats.page_programs == 2

    def test_snapshot_copies_per_block_erases(self):
        stats = FlashStats()
        stats.record_erase(0)
        snap = stats.snapshot()
        stats.record_erase(0)
        assert snap.erases_per_block == {0: 1}
        assert stats.erases_per_block == {0: 2}


class TestFTLStats:
    def test_snapshot_is_independent(self):
        stats = FTLStats(host_writes=4, gc_runs=2, scrub_relocations=5)
        snap = stats.snapshot()
        stats.host_writes += 1
        assert snap is not stats
        assert snap.host_writes == 4
        assert snap.summary() == {**stats.summary(), "host_writes": 4}
