"""Tests for the baseline FTL: mapping, GC, wear leveling, retirement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CodingError, FTLError, OutOfSpaceError
from repro.flash import FlashChip, FlashGeometry, SLC
from repro.ftl import BasicFTL, DynamicWearLeveling, NoWearLeveling


def make_ftl(blocks=4, pages=4, page_bits=32, erase_limit=50, logical=8,
             **kw) -> BasicFTL:
    chip = FlashChip(
        FlashGeometry(blocks=blocks, pages_per_block=pages, page_bits=page_bits,
                      erase_limit=erase_limit, cell=SLC)
    )
    return BasicFTL(chip, logical_pages=logical, **kw)


def rand_data(rng, bits) -> np.ndarray:
    return rng.integers(0, 2, bits, dtype=np.uint8)


class TestReadWrite:
    def test_roundtrip(self) -> None:
        ftl = make_ftl()
        rng = np.random.default_rng(0)
        data = rand_data(rng, 32)
        ftl.write(3, data)
        assert np.array_equal(ftl.read(3), data)

    def test_unwritten_page_reads_zero(self) -> None:
        ftl = make_ftl()
        assert ftl.read(0).sum() == 0

    def test_rewrite_returns_latest(self) -> None:
        ftl = make_ftl()
        rng = np.random.default_rng(1)
        for _ in range(5):
            data = rand_data(rng, 32)
            ftl.write(2, data)
        assert np.array_equal(ftl.read(2), data)

    def test_independent_pages(self) -> None:
        ftl = make_ftl()
        rng = np.random.default_rng(2)
        blobs = {lpn: rand_data(rng, 32) for lpn in range(6)}
        for lpn, data in blobs.items():
            ftl.write(lpn, data)
        for lpn, data in blobs.items():
            assert np.array_equal(ftl.read(lpn), data)

    def test_wrong_size_rejected(self) -> None:
        ftl = make_ftl()
        with pytest.raises(CodingError):
            ftl.write(0, np.zeros(31, np.uint8))


class TestGarbageCollection:
    def test_sustained_rewrites_trigger_gc(self) -> None:
        ftl = make_ftl(blocks=4, pages=4, logical=6)
        rng = np.random.default_rng(3)
        for _ in range(60):
            ftl.write(int(rng.integers(0, 6)), rand_data(rng, 32))
        assert ftl.stats.gc_runs > 0
        assert ftl.chip.stats.block_erases > 0

    def test_data_survives_gc(self) -> None:
        ftl = make_ftl(blocks=4, pages=4, logical=6)
        rng = np.random.default_rng(4)
        current = {}
        for _ in range(80):
            lpn = int(rng.integers(0, 6))
            data = rand_data(rng, 32)
            ftl.write(lpn, data)
            current[lpn] = data
        for lpn, data in current.items():
            assert np.array_equal(ftl.read(lpn), data)

    @staticmethod
    def _hand_built(layout: list[str]) -> BasicFTL:
        """A 4x4 device with no free block, one string per block: ``L`` a
        live page, ``I`` an invalid one, ``.`` a free one.  The last block
        is open at its first free page; the others are closed."""
        ftl = make_ftl(blocks=4, pages=4, logical=12)
        lpn = 0
        for block, pages in enumerate(layout):
            for page, kind in enumerate(pages):
                if kind == "L":
                    data = np.unpackbits(np.array([lpn] * 4, dtype=np.uint8))
                    ftl.chip.program_page(block, page, data)
                    ftl.mapping.map(lpn, (block, page))
                    lpn += 1
                elif kind == "I":
                    ftl.mapping.discard((block, page))
        ftl._free_blocks.clear()
        ftl._open_block = len(layout) - 1
        ftl._next_page = layout[-1].index(".")
        return ftl

    def _victim(self, layout: list[str]) -> int:
        """The one block a GC round erases; live data must survive it."""
        ftl = self._hand_built(layout)
        before = {lpn: ftl.read(lpn) for lpn in range(12)}
        ftl._garbage_collect(target_free=1)
        erased = [
            block for block, count in enumerate(ftl.chip.block_erase_counts())
            if count
        ]
        assert len(erased) == 1 and ftl.stats.gc_runs == 1
        for lpn, data in before.items():
            assert np.array_equal(ftl.read(lpn), data)
        return erased[0]

    def test_greedy_victim_rule(self) -> None:
        # The most invalid pages wins.
        assert self._victim(["LLLI", "LIII", "LLII", "L..."]) == 1
        # On a tie the lower block index wins.
        assert self._victim(["LLLL", "LLII", "LLII", "L..."]) == 1
        # Block 0 has the most invalid pages, but its two live pages do
        # not fit the one free page left, so it is skipped.
        assert self._victim(["LLII", "I...", "LLLL", "LLL."]) == 1

    def test_overfull_logical_space_rejected(self) -> None:
        with pytest.raises(FTLError):
            make_ftl(blocks=2, pages=4, logical=8)


class TestWearLevelingPolicies:
    def _wear_gap(self, policy) -> int:
        ftl = make_ftl(blocks=6, pages=4, logical=8, erase_limit=10_000,
                       wear_leveling=policy)
        rng = np.random.default_rng(6)
        # Hot/cold: two pages take nearly all writes.
        cold_written = False
        for i in range(400):
            if not cold_written:
                for lpn in range(2, 8):
                    ftl.write(lpn, rand_data(rng, 32))
                cold_written = True
            ftl.write(int(rng.integers(0, 2)), rand_data(rng, 32))
        counts = ftl.chip.block_erase_counts()
        return max(counts) - min(counts)

    def test_dynamic_leveling_beats_none(self) -> None:
        gap_dynamic = self._wear_gap(DynamicWearLeveling())
        gap_none = self._wear_gap(NoWearLeveling())
        assert gap_dynamic <= gap_none


class TestDeviceDeath:
    def test_device_eventually_out_of_space(self) -> None:
        ftl = make_ftl(blocks=3, pages=4, logical=4, erase_limit=4)
        rng = np.random.default_rng(9)
        with pytest.raises(OutOfSpaceError):
            for _ in range(10_000):
                ftl.write(int(rng.integers(0, 4)), rand_data(rng, 32))
        assert ftl.stats.retired_blocks > 0

    def test_reads_still_work_after_death(self) -> None:
        ftl = make_ftl(blocks=3, pages=4, logical=4, erase_limit=4)
        rng = np.random.default_rng(10)
        current = {}
        try:
            for _ in range(10_000):
                lpn = int(rng.integers(0, 4))
                data = rand_data(rng, 32)
                ftl.write(lpn, data)
                current[lpn] = data
        except OutOfSpaceError:
            pass
        for lpn, data in current.items():
            assert np.array_equal(ftl.read(lpn), data)
