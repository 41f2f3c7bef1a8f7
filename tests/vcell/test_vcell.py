"""Tests for single virtual cells (paper Figs. 6, 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CellSaturatedError, ConfigurationError, VCellError
from repro.vcell import VCellArray, VCellSpec


class TestVCellSpec:
    def test_four_level_cell_uses_three_bits(self) -> None:
        spec = VCellSpec(levels=4)
        assert spec.bits_per_cell == 3
        assert spec.max_level == 3

    def test_eight_level_cell_uses_seven_bits(self) -> None:
        spec = VCellSpec(levels=8)
        assert spec.bits_per_cell == 7

    def test_patterns_of_level_matches_figure_6(self) -> None:
        spec = VCellSpec(levels=4)
        # Fig. 6: L0={000}, L1={001,010,100}, L2={011,101,110}, L3={111}.
        assert spec.patterns_of_level(0) == (0b000,)
        assert set(spec.patterns_of_level(1)) == {0b001, 0b010, 0b100}
        assert set(spec.patterns_of_level(2)) == {0b011, 0b101, 0b110}
        assert spec.patterns_of_level(3) == (0b111,)

    def test_level_of_pattern_is_popcount(self) -> None:
        spec = VCellSpec(levels=4)
        for pattern in range(8):
            assert spec.level_of_pattern(pattern) == bin(pattern).count("1")

    def test_reachability_is_superset(self) -> None:
        spec = VCellSpec(levels=4)
        assert spec.reachable(0b001, 0b011)
        assert spec.reachable(0b001, 0b101)
        assert not spec.reachable(0b001, 0b010)
        assert not spec.reachable(0b001, 0b110)

    def test_invalid_levels(self) -> None:
        with pytest.raises(ConfigurationError):
            VCellSpec(levels=1)
        spec = VCellSpec(levels=4)
        with pytest.raises(VCellError):
            spec.patterns_of_level(4)
        with pytest.raises(VCellError):
            spec.level_of_pattern(8)


def one_cell(levels: int = 4) -> VCellArray:
    """A page that holds exactly one v-cell."""
    return VCellArray(VCellSpec(levels), page_bits=levels - 1)


class TestVCellStateMachine:
    def test_starts_erased(self) -> None:
        cell = one_cell()
        page = cell.erased_page()
        assert cell.levels(page).tolist() == [0] and not page.any()
        assert not cell.saturated(page).any()

    def test_ideal_interface_every_increase_works(self) -> None:
        # The whole point of v-cells: any i -> j with i < j is one program.
        cell = one_cell()
        for start in range(4):
            for target in range(start, 4):
                page = cell.program_levels(cell.erased_page(), np.array([start]))
                page = cell.program_levels(page, np.array([target]))
                assert cell.levels(page).tolist() == [target]

    def test_increment_sets_lowest_unset_bits(self) -> None:
        cell = one_cell()
        page = cell.program_levels(cell.erased_page(), np.array([1]))
        assert page.tolist() == [1, 0, 0]
        page = cell.program_levels(page, np.array([2]))
        assert page.tolist() == [1, 1, 0]

    def test_saturation(self) -> None:
        cell = one_cell()
        page = cell.program_levels(cell.erased_page(), np.array([3]))
        assert cell.saturated(page).all()
        with pytest.raises(CellSaturatedError):
            cell.program_levels(page, np.array([4]))

    def test_level_decrease_rejected(self) -> None:
        cell = one_cell()
        page = cell.program_levels(cell.erased_page(), np.array([2]))
        with pytest.raises(VCellError):
            cell.program_levels(page, np.array([1]))

    def test_eight_level_cell_walk(self) -> None:
        cell = one_cell(levels=8)
        page = cell.erased_page()
        for target in range(8):
            page = cell.program_levels(page, np.array([target]))
            assert cell.levels(page).tolist() == [target]
        assert cell.saturated(page).all()
