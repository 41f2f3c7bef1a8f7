"""Graceful-degradation tests: program retry, read recovery, scrub, GC safety."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    OutOfSpaceError,
    ProgramFailedError,
    UncorrectableReadError,
)
from repro.faults import (
    FaultInjector,
    FaultProfile,
    FaultSchedule,
    ScheduledFault,
)
from repro.flash import FlashChip, FlashGeometry, SLC
from repro.ftl import BasicFTL, StaticWearLeveling

PAGE_BITS = 32


def make_ftl(
    blocks=4,
    pages=4,
    erase_limit=50,
    logical=8,
    profile=None,
    schedule=None,
    fault_seed=0,
    **kw,
) -> BasicFTL:
    injector = None
    if profile is not None or schedule is not None:
        injector = FaultInjector(profile=profile, schedule=schedule,
                                 seed=fault_seed)
    chip = FlashChip(
        FlashGeometry(blocks=blocks, pages_per_block=pages,
                      page_bits=PAGE_BITS, erase_limit=erase_limit, cell=SLC),
        fault_injector=injector,
    )
    return BasicFTL(chip, logical_pages=logical, **kw)


def rand_data(rng, bits=PAGE_BITS) -> np.ndarray:
    return rng.integers(0, 2, bits, dtype=np.uint8)


class TestProgramFailureHandling:
    def test_permanent_failure_retried_and_block_retired(self) -> None:
        # The very first program ever issued lands on a scripted bad page;
        # the FTL must absorb it, retire the block, and land the data.
        schedule = FaultSchedule(
            [ScheduledFault(kind="kill_page", block=0, page=0, after_op=0)]
        )
        ftl = make_ftl(schedule=schedule)
        rng = np.random.default_rng(0)
        data = rand_data(rng)
        ftl.write(5, data)
        assert np.array_equal(ftl.read(5), data)
        assert ftl.stats.program_failures >= 1
        assert ftl.stats.retired_blocks >= 1
        assert 0 in ftl.retired_blocks

    def test_retired_block_leaves_allocation(self) -> None:
        schedule = FaultSchedule(
            [ScheduledFault(kind="kill_block", block=0, after_op=0)]
        )
        ftl = make_ftl(schedule=schedule)
        rng = np.random.default_rng(1)
        for lpn in range(8):
            ftl.write(lpn, rand_data(rng))
        for lpn in range(8):
            addr = ftl.mapping.lookup(lpn)
            assert addr is not None and addr[0] != 0

    def test_transient_failures_absorbed_silently(self, monkeypatch) -> None:
        monkeypatch.setattr(BasicFTL, "RESERVE_BLOCKS", 2)
        ftl = make_ftl(
            profile=FaultProfile(transient_program_failure_rate=0.1),
            fault_seed=2,
            logical=6,
        )
        rng = np.random.default_rng(2)
        current = {}
        for _ in range(40):
            lpn = int(rng.integers(0, 6))
            data = rand_data(rng)
            ftl.write(lpn, data)
            current[lpn] = data
        assert ftl.stats.program_failures > 0
        assert ftl.stats.retired_blocks == 0  # transient: nothing retired
        for lpn, data in current.items():
            assert np.array_equal(ftl.read(lpn), data)

    def test_heavy_transient_failures_die_cleanly_without_loss(self) -> None:
        # A failure rate that outpaces the over-provisioning reserve is
        # allowed to kill the device early (failed programs burn pages GC
        # cannot win back) — but death must be a clean OutOfSpaceError with
        # every accepted write still readable, never a crash or data loss.
        ftl = make_ftl(
            profile=FaultProfile(transient_program_failure_rate=0.3),
            fault_seed=2,
        )
        rng = np.random.default_rng(2)
        current = {}
        for _ in range(40):
            lpn = int(rng.integers(0, 8))
            data = rand_data(rng)
            try:
                ftl.write(lpn, data)
            except OutOfSpaceError:
                break
            current[lpn] = data
        assert ftl.stats.program_failures > 0
        for lpn, data in current.items():
            assert np.array_equal(ftl.read(lpn), data)

    def test_exhausted_retries_surface_the_error(self, monkeypatch) -> None:
        monkeypatch.setattr(BasicFTL, "MAX_PROGRAM_RETRIES", 2)
        ftl = make_ftl(
            profile=FaultProfile(transient_program_failure_rate=1.0),
        )
        with pytest.raises(ProgramFailedError):
            ftl.write(0, np.zeros(PAGE_BITS, np.uint8))
        assert ftl.stats.program_failures == 3  # first try + 2 retries


class _FlakyReadFTL(BasicFTL):
    """Reports the first ``flaky_reads`` decode attempts as corrupt."""

    def __init__(self, *args, flaky_reads=0, **kw) -> None:
        super().__init__(*args, **kw)
        self._remaining_bad = flaky_reads

    def _decode(self, raw):
        data, _, clean = super()._decode(raw)
        if self._remaining_bad > 0:
            self._remaining_bad -= 1
            return data, False, False
        return data, True, clean


def make_flaky(flaky_reads: int) -> _FlakyReadFTL:
    chip = FlashChip(
        FlashGeometry(blocks=4, pages_per_block=4, page_bits=PAGE_BITS,
                      erase_limit=50, cell=SLC)
    )
    return _FlakyReadFTL(chip, logical_pages=8, flaky_reads=flaky_reads)


class TestReadRecoveryLadder:
    def test_transient_corruption_recovered_by_retry(self, monkeypatch) -> None:
        monkeypatch.setattr(BasicFTL, "MAX_READ_RETRIES", 4)
        ftl = make_flaky(flaky_reads=2)
        data = np.ones(PAGE_BITS, np.uint8)
        ftl.write(0, data)
        assert np.array_equal(ftl.read(0), data)
        assert ftl.stats.read_retries == 2
        assert ftl.stats.uncorrectable_reads == 0
        assert ftl.stats.data_loss_events == 0

    def test_persistent_corruption_raises_uncorrectable(
        self, monkeypatch
    ) -> None:
        monkeypatch.setattr(BasicFTL, "MAX_READ_RETRIES", 3)
        ftl = make_flaky(flaky_reads=100)
        ftl.write(0, np.ones(PAGE_BITS, np.uint8))
        with pytest.raises(UncorrectableReadError):
            ftl.read(0)
        assert ftl.stats.read_retries == 3
        assert ftl.stats.uncorrectable_reads == 1
        assert ftl.stats.data_loss_events == 1

    def test_zero_retry_budget_fails_immediately(self, monkeypatch) -> None:
        monkeypatch.setattr(BasicFTL, "MAX_READ_RETRIES", 0)
        ftl = make_flaky(flaky_reads=1)
        ftl.write(0, np.ones(PAGE_BITS, np.uint8))
        with pytest.raises(UncorrectableReadError):
            ftl.read(0)
        assert ftl.stats.read_retries == 0

    def test_uncoded_reads_never_climb_the_ladder(self) -> None:
        # The base FTL has no redundancy, so corruption is undetectable and
        # the ladder must stay dormant (no spurious retries).
        ftl = make_ftl()
        rng = np.random.default_rng(3)
        for lpn in range(8):
            ftl.write(lpn, rand_data(rng))
        for lpn in range(8):
            ftl.read(lpn)
        assert ftl.stats.read_retries == 0


class TestScrub:
    def test_scrub_rescues_live_data_from_retired_blocks(self) -> None:
        ftl = make_ftl()
        rng = np.random.default_rng(4)
        current = {lpn: rand_data(rng) for lpn in range(8)}
        for lpn, data in current.items():
            ftl.write(lpn, data)
        victim = ftl.mapping.lookup(0)[0]
        ftl._retire_block(victim)
        stranded = len(ftl.mapping.live_pages_in_block(victim))
        assert stranded > 0
        moved = ftl.scrub()
        assert moved >= stranded
        assert ftl.stats.scrub_relocations == moved
        assert not ftl.mapping.live_pages_in_block(victim)
        for lpn, data in current.items():
            assert np.array_equal(ftl.read(lpn), data)

    def test_scrub_respects_relocation_budget(self) -> None:
        ftl = make_ftl()
        rng = np.random.default_rng(5)
        for lpn in range(8):
            ftl.write(lpn, rand_data(rng))
        victim = ftl.mapping.lookup(0)[0]
        ftl._retire_block(victim)
        stranded = len(ftl.mapping.live_pages_in_block(victim))
        assert stranded > 1
        assert ftl.scrub(max_relocations=1) == 1
        assert len(ftl.mapping.live_pages_in_block(victim)) == stranded - 1

    def test_healthy_device_scrub_is_a_no_op(self) -> None:
        ftl = make_ftl()
        rng = np.random.default_rng(6)
        for lpn in range(8):
            ftl.write(lpn, rand_data(rng))
        assert ftl.scrub() == 0
        assert ftl.stats.scrub_relocations == 0


class _ParanoidScrubFTL(BasicFTL):
    """Declares every scrubbed page degraded — refresh everything."""

    def _decode(self, raw):
        data, ok, _ = super()._decode(raw)
        return data, ok, False


class TestScrubRefresh:
    def test_degraded_pages_are_refreshed(self) -> None:
        chip = FlashChip(
            FlashGeometry(blocks=4, pages_per_block=4, page_bits=PAGE_BITS,
                          erase_limit=50, cell=SLC)
        )
        ftl = _ParanoidScrubFTL(chip, logical_pages=6)
        rng = np.random.default_rng(7)
        current = {lpn: rand_data(rng) for lpn in range(6)}
        for lpn, data in current.items():
            ftl.write(lpn, data)
        moved = ftl.scrub()
        assert moved > 0
        assert ftl.stats.scrub_relocations == moved
        for lpn, data in current.items():
            assert np.array_equal(ftl.read(lpn), data)


class TestGcNonDestructive:
    def test_gc_survives_aggressive_static_migration(self, monkeypatch) -> None:
        # Regression: static migration mid-GC used to re-enter the reclaim
        # path, erase the outer victim under its own feet, and crash on a
        # stale live-page snapshot (or abort mid-relocation on
        # OutOfSpaceError, stranding data).  Checking wear leveling on
        # every write makes nested reclaims as likely as they can get.
        monkeypatch.setattr(BasicFTL, "WL_CHECK_INTERVAL", 1)
        ftl = make_ftl(
            blocks=5, pages=4, logical=10, erase_limit=200,
            wear_leveling=StaticWearLeveling(),
        )
        rng = np.random.default_rng(8)
        current = {}
        for step in range(400):
            lpn = int(rng.integers(0, 10))
            data = rand_data(rng)
            ftl.write(lpn, data)
            current[lpn] = data
            if step % 50 == 0:
                for known, expected in current.items():
                    assert np.array_equal(ftl.read(known), expected)
        for known, expected in current.items():
            assert np.array_equal(ftl.read(known), expected)

    def test_gc_with_failing_programs_never_loses_data(
        self, monkeypatch
    ) -> None:
        # Program failures during GC relocation must leave every live page
        # either at its old address or safely re-mapped — never dropped.
        # The device may die early when failures outpace the reserve; the
        # contract is clean death plus intact data, whenever that happens.
        monkeypatch.setattr(BasicFTL, "RESERVE_BLOCKS", 2)
        ftl = make_ftl(
            blocks=6, pages=4, logical=10, erase_limit=200,
            profile=FaultProfile(transient_program_failure_rate=0.1),
            fault_seed=9,
        )
        rng = np.random.default_rng(9)
        current = {}
        for _ in range(300):
            lpn = int(rng.integers(0, 10))
            data = rand_data(rng)
            try:
                ftl.write(lpn, data)
            except OutOfSpaceError:
                break
            current[lpn] = data
        assert ftl.stats.program_failures > 0
        assert ftl.stats.gc_runs > 0
        for lpn, data in current.items():
            assert np.array_equal(ftl.read(lpn), data)
