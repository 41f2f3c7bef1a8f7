"""Tests for wear-leveling policies, including static migration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash import FlashChip, FlashGeometry, SLC
from repro.ftl import (
    BasicFTL,
    DynamicWearLeveling,
    NoWearLeveling,
    StaticWearLeveling,
)


@pytest.fixture(autouse=True)
def frequent_wl_checks(monkeypatch):
    """Check the wear spread every 8 host writes, not every 32."""
    monkeypatch.setattr(BasicFTL, "WL_CHECK_INTERVAL", 8)


def make_ftl(policy, blocks=6, erase_limit=100_000):
    chip = FlashChip(
        FlashGeometry(blocks=blocks, pages_per_block=4, page_bits=32,
                      erase_limit=erase_limit, cell=SLC)
    )
    return BasicFTL(chip, logical_pages=12, wear_leveling=policy)


def hot_cold_run(ftl, writes=400, seed=0):
    """Fill cold data once, then hammer two hot pages."""
    rng = np.random.default_rng(seed)
    for lpn in range(2, 12):
        ftl.write(lpn, rng.integers(0, 2, 32, dtype=np.uint8))
    for _ in range(writes):
        ftl.write(int(rng.integers(0, 2)), rng.integers(0, 2, 32, dtype=np.uint8))
    counts = ftl.chip.block_erase_counts()
    return max(counts) - min(counts)


class TestPolicyChoices:
    def test_no_wear_leveling_picks_lowest_index(self) -> None:
        policy = NoWearLeveling()
        assert policy.choose_block([3, 1, 5], [9, 9, 9, 9, 9, 9]) == 1

    def test_dynamic_picks_least_worn(self) -> None:
        policy = DynamicWearLeveling()
        assert policy.choose_block([0, 1, 2], [5, 1, 3]) == 1

    def test_dynamic_ties_break_by_index(self) -> None:
        policy = DynamicWearLeveling()
        assert policy.choose_block([2, 1], [0, 3, 3]) == 1

    def test_static_migration_threshold(self) -> None:
        policy = StaticWearLeveling(threshold=4)
        assert not policy.wants_migration([0, 2, 4])
        assert policy.wants_migration([0, 2, 5])
        assert not policy.wants_migration([])


class TestStaticMigrationInTheFtl:
    def test_migrations_happen_under_hot_cold(self) -> None:
        ftl = make_ftl(StaticWearLeveling(threshold=4))
        hot_cold_run(ftl)
        assert ftl.stats.migrations > 0

    def test_static_narrows_wear_gap_vs_dynamic(self) -> None:
        gap_static = hot_cold_run(make_ftl(StaticWearLeveling(threshold=4)))
        gap_dynamic = hot_cold_run(make_ftl(DynamicWearLeveling()))
        assert gap_static < gap_dynamic

    def test_dynamic_policy_never_migrates(self) -> None:
        ftl = make_ftl(DynamicWearLeveling())
        hot_cold_run(ftl)
        assert ftl.stats.migrations == 0

    def test_data_survives_migrations(self) -> None:
        ftl = make_ftl(StaticWearLeveling(threshold=4))
        rng = np.random.default_rng(1)
        current = {}
        for lpn in range(12):
            data = rng.integers(0, 2, 32, dtype=np.uint8)
            ftl.write(lpn, data)
            current[lpn] = data
        for _ in range(300):
            lpn = int(rng.integers(0, 2))
            data = rng.integers(0, 2, 32, dtype=np.uint8)
            ftl.write(lpn, data)
            current[lpn] = data
        for lpn, data in current.items():
            assert np.array_equal(ftl.read(lpn), data)
        assert ftl.stats.migrations > 0
