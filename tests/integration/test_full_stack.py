"""End-to-end integration: physical cells -> v-cells -> codes -> FTL -> host.

These tests exercise the complete paper narrative in one place:

1. prior ideal-cell codes break on the realistic chip model,
2. the same codes work through v-cells on the very same chip,
3. MFC-coded devices survive an order of magnitude more host writes,
4. data integrity holds through rewrites, relocations, GC and wearout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding.ideal_cell_codes import IdealCellWaterfall
from repro.core import make_scheme
from repro.errors import IllegalTransitionError, OutOfSpaceError
from repro.flash import FlashChip, FlashGeometry, MLC, SLC, TLC
from repro.ftl import RewritingFTL
from repro.ssd import SSD, run_until_death
from repro.workload import UniformWorkload


class TestPaperNarrative:
    def test_ideal_code_fails_on_real_chip_vcells_succeed(self) -> None:
        """Section IV in one test."""
        chip = FlashChip(FlashGeometry(blocks=1, pages_per_block=2,
                                       page_bits=32, cell=MLC))
        wordline, _ = chip.blocks[0].wordline_of_page(0)
        ideal_code = IdealCellWaterfall(wordline)
        rng = np.random.default_rng(0)
        ideal_code.write(rng.integers(0, 2, 32, dtype=np.uint8))
        with pytest.raises(IllegalTransitionError):
            # Second random write needs L1 -> L2 somewhere, with certainty
            # at this size.
            ideal_code.write(rng.integers(0, 2, 32, dtype=np.uint8))

        # Same chip model, same amount of flash, but through v-cells:
        chip2 = FlashChip(FlashGeometry(blocks=2, pages_per_block=2,
                                        page_bits=96, cell=MLC))
        scheme = make_scheme("waterfall", 96)
        ftl = RewritingFTL(chip2, scheme, logical_pages=1)
        for _ in range(4):
            data = rng.integers(0, 2, scheme.dataword_bits, dtype=np.uint8)
            ftl.write(0, data)
            assert np.array_equal(ftl.read(0), data)
        assert ftl.stats.in_place_rewrites >= 2

    def test_mfc_device_outlives_uncoded_by_an_order_of_magnitude(self) -> None:
        geometry = FlashGeometry(blocks=6, pages_per_block=4, page_bits=240,
                                 erase_limit=10)
        lifetimes = {}
        for scheme in ("uncoded", "mfc-1/2-1bpc"):
            kwargs = {"constraint_length": 3} if scheme.startswith("mfc") else {}
            ssd = SSD(geometry=geometry, scheme=scheme, utilization=0.5, **kwargs)
            workload = UniformWorkload(ssd.logical_pages, seed=1)
            lifetimes[scheme] = run_until_death(
                ssd, workload, max_writes=500_000
            ).host_writes
        assert lifetimes["mfc-1/2-1bpc"] > 8 * lifetimes["uncoded"]


class TestDataIntegrityUnderStress:
    @pytest.mark.parametrize("scheme_name", ["wom", "mfc-1/2-1bpc", "mfc-ecc"])
    def test_integrity_until_device_death(self, scheme_name: str) -> None:
        """Every read returns the latest write, for the device's whole life."""
        geometry = FlashGeometry(blocks=5, pages_per_block=4, page_bits=384,
                                 erase_limit=6)
        kwargs = {"constraint_length": 3} if scheme_name.startswith("mfc") else {}
        ssd = SSD(geometry=geometry, scheme=scheme_name, utilization=0.5,
                  **kwargs)
        rng = np.random.default_rng(2)
        current: dict[int, np.ndarray] = {}
        try:
            for _ in range(100_000):
                lpn = int(rng.integers(0, ssd.logical_pages))
                data = rng.integers(0, 2, ssd.logical_page_bits, dtype=np.uint8)
                ssd.write(lpn, data)
                current[lpn] = data
                if len(current) % 7 == 0:  # spot-check a mapped page
                    probe = next(iter(current))
                    assert np.array_equal(ssd.read(probe), current[probe])
        except OutOfSpaceError:
            pass
        assert current, "device died before any write"
        for lpn, data in current.items():
            assert np.array_equal(ssd.read(lpn), data)

    def test_erase_accounting_matches_scheme_gain(self) -> None:
        """A WOM device should erase roughly half as often per host write."""
        geometry = FlashGeometry(blocks=6, pages_per_block=4, page_bits=240,
                                 erase_limit=2000)
        results = {}
        for scheme in ("uncoded", "wom"):
            ssd = SSD(geometry=geometry, scheme=scheme, utilization=0.5)
            workload = UniformWorkload(ssd.logical_pages, seed=3)
            results[scheme] = run_until_death(ssd, workload, max_writes=3000)
        uncoded_rate = results["uncoded"].writes_per_erase
        wom_rate = results["wom"].writes_per_erase
        assert wom_rate > 1.5 * uncoded_rate


class TestOtherCellTechnologies:
    def test_vcells_on_slc_chip(self) -> None:
        """V-cells are technology independent: SLC pages work identically."""
        chip = FlashChip(FlashGeometry(blocks=3, pages_per_block=2,
                                       page_bits=96, cell=SLC, erase_limit=50))
        scheme = make_scheme("wom", 96)
        ftl = RewritingFTL(chip, scheme, logical_pages=2)
        rng = np.random.default_rng(4)
        for _ in range(6):
            data = rng.integers(0, 2, scheme.dataword_bits, dtype=np.uint8)
            ftl.write(1, data)
            assert np.array_equal(ftl.read(1), data)

    def test_vcells_on_tlc_chip(self) -> None:
        chip = FlashChip(FlashGeometry(blocks=3, pages_per_block=6,
                                       page_bits=96, cell=TLC, erase_limit=50))
        scheme = make_scheme("mfc-1/2-1bpc", 96, constraint_length=3)
        ftl = RewritingFTL(chip, scheme, logical_pages=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            lpn = int(rng.integers(0, 4))
            data = rng.integers(0, 2, scheme.dataword_bits, dtype=np.uint8)
            ftl.write(lpn, data)
            assert np.array_equal(ftl.read(lpn), data)
        assert ftl.stats.in_place_rewrites > 0
