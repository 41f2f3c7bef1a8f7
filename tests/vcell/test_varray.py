"""Tests for vectorized v-cell page views, including hypothesis properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CellSaturatedError, VCellError
from repro.vcell import VCellArray, VCellSpec


@pytest.fixture
def varray() -> VCellArray:
    return VCellArray(VCellSpec(levels=4), page_bits=12)  # 4 cells


class TestShapes:
    def test_cell_count(self, varray: VCellArray) -> None:
        assert varray.num_cells == 4
        assert varray.used_bits == 12

    def test_leftover_bits_ignored(self) -> None:
        varray = VCellArray(VCellSpec(levels=4), page_bits=14)
        assert varray.num_cells == 4
        assert varray.used_bits == 12

    def test_too_small_page_rejected(self) -> None:
        with pytest.raises(VCellError):
            VCellArray(VCellSpec(levels=8), page_bits=5)

    def test_wrong_page_shape_rejected(self, varray: VCellArray) -> None:
        with pytest.raises(VCellError):
            varray.levels(np.zeros(10, np.uint8))


class TestLevels:
    def test_erased_page_all_l0(self, varray: VCellArray) -> None:
        assert varray.levels(varray.erased_page()).tolist() == [0, 0, 0, 0]

    def test_levels_are_popcounts(self, varray: VCellArray) -> None:
        page = np.array([1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0], np.uint8)
        assert varray.levels(page).tolist() == [1, 2, 3, 0]

    def test_histogram(self, varray: VCellArray) -> None:
        page = np.array([1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0], np.uint8)
        assert varray.level_histogram(page).tolist() == [1, 1, 1, 1]

    def test_headroom(self, varray: VCellArray) -> None:
        page = varray.erased_page()
        assert varray.headroom(page) == 12
        page = varray.program_levels(page, np.array([3, 3, 3, 3]))
        assert varray.headroom(page) == 0


class TestProgramLevels:
    def test_simple_increase(self, varray: VCellArray) -> None:
        page = varray.program_levels(varray.erased_page(), np.array([0, 1, 2, 3]))
        assert varray.levels(page).tolist() == [0, 1, 2, 3]

    def test_program_is_monotone_bitwise(self, varray: VCellArray) -> None:
        first = varray.program_levels(varray.erased_page(), np.array([1, 1, 1, 1]))
        second = varray.program_levels(first, np.array([2, 1, 3, 2]))
        assert ((first == 1) <= (second == 1)).all()

    def test_decrease_rejected(self, varray: VCellArray) -> None:
        page = varray.program_levels(varray.erased_page(), np.array([2, 0, 0, 0]))
        with pytest.raises(VCellError, match="lower"):
            varray.program_levels(page, np.array([1, 0, 0, 0]))

    def test_above_max_rejected(self, varray: VCellArray) -> None:
        with pytest.raises(CellSaturatedError):
            varray.program_levels(varray.erased_page(), np.array([4, 0, 0, 0]))

    def test_wrong_target_count_rejected(self, varray: VCellArray) -> None:
        with pytest.raises(VCellError):
            varray.program_levels(varray.erased_page(), np.array([1, 1]))

    def test_original_page_unmodified(self, varray: VCellArray) -> None:
        page = varray.erased_page()
        varray.program_levels(page, np.array([3, 3, 3, 3]))
        assert page.sum() == 0

    def test_saturated_mask(self, varray: VCellArray) -> None:
        page = varray.program_levels(varray.erased_page(), np.array([3, 2, 3, 0]))
        assert varray.saturated(page).tolist() == [True, False, True, False]


class TestNothingNarrowsSilently:
    """Targets and page entries are checked before they become int64/uint8."""

    def test_fractional_target_rejected(self, varray: VCellArray) -> None:
        erased = varray.erased_page()
        with pytest.raises(VCellError, match="^cell 0: target level 1.5 is not an integer$"):
            varray.program_levels(erased, [1.5, 0, 0, 0])
        with pytest.raises(VCellError, match="^lane 1, cell 2: target level 0.5 is not"):
            varray.program_levels_batch(
                np.stack([erased, erased]), [[1, 0, 0, 0], [1, 0, 0.5, 0]]
            )
        with pytest.raises(VCellError, match="is not an integer"):
            varray.program_levels(erased, [np.nan, 0, 0, 0])

    def test_integral_floats_program_like_ints(self, varray: VCellArray) -> None:
        erased = varray.erased_page()
        assert np.array_equal(
            varray.program_levels(erased, [2.0, 0.0, 3.0, 1.0]),
            varray.program_levels(erased, [2, 0, 3, 1]),
        )

    @pytest.mark.parametrize("value", [0.9, 256, -1, 2])
    def test_non_bit_page_entries_rejected(self, varray: VCellArray, value) -> None:
        page = np.zeros(12, np.int64 if isinstance(value, int) else float)
        page[5] = value
        with pytest.raises(VCellError, match=f"^lane 0, bit 5: {value} is not a bit$"):
            varray.levels(page)
        with pytest.raises(VCellError, match=f"^lane 1, bit 5: {value} is not a bit$"):
            varray.levels_batch(np.stack([np.zeros_like(page), page]))
        with pytest.raises(VCellError, match="is not a bit"):
            varray.program_levels(page, [0, 0, 0, 0])
        with pytest.raises(VCellError, match="is not a bit"):
            varray.levels(np.full(12, 0.9))

    def test_other_bit_dtypes_read_like_uint8(self, varray: VCellArray) -> None:
        page = np.array([1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0])
        for dtype in (bool, np.int64, float):
            assert varray.levels(page.astype(dtype)).tolist() == [1, 2, 3, 0]
            assert varray.program_levels(page.astype(dtype), [1, 2, 3, 1]).dtype == np.uint8


class TestProperties:
    """Property-based invariants of the v-cell page view."""

    @staticmethod
    def _random_targets(draw, varray: VCellArray, floor: np.ndarray) -> np.ndarray:
        return np.array(
            [
                draw(st.integers(int(low), varray.spec.max_level))
                for low in floor
            ]
        )

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_program_reaches_requested_levels(self, data) -> None:
        varray = VCellArray(VCellSpec(levels=4), page_bits=12)
        page = varray.erased_page()
        floor = np.zeros(varray.num_cells, int)
        for _ in range(3):
            targets = self._random_targets(data.draw, varray, floor)
            page = varray.program_levels(page, targets)
            assert varray.levels(page).tolist() == targets.tolist()
            floor = targets

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_bits_never_clear_across_updates(self, data) -> None:
        varray = VCellArray(VCellSpec(levels=8), page_bits=21)
        page = varray.erased_page()
        floor = np.zeros(varray.num_cells, int)
        for _ in range(4):
            targets = self._random_targets(data.draw, varray, floor)
            new_page = varray.program_levels(page, targets)
            assert ((page == 1) <= (new_page == 1)).all()
            page, floor = new_page, targets

    @given(
        levels=st.integers(2, 9),
        page_bits=st.integers(8, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_cell_count_formula(self, levels: int, page_bits: int) -> None:
        if page_bits < levels - 1:
            with pytest.raises(VCellError):
                VCellArray(VCellSpec(levels=levels), page_bits=page_bits)
            return
        varray = VCellArray(VCellSpec(levels=levels), page_bits=page_bits)
        assert varray.num_cells == page_bits // (levels - 1)
        assert varray.headroom(varray.erased_page()) == (
            varray.num_cells * (levels - 1)
        )


def _reference_cells(varray: VCellArray, pages: np.ndarray) -> np.ndarray:
    return pages[..., : varray.used_bits].reshape(
        *pages.shape[:-1], varray.num_cells, varray.bits_per_cell
    )


def _reference_levels(varray: VCellArray, pages: np.ndarray) -> np.ndarray:
    return _reference_cells(varray, pages).sum(axis=-1, dtype=np.int64)


def _reference_program(varray: VCellArray, pages: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The ``cumsum``-rank programming ``VCellArray`` used before it walked the
    bit columns: rank each unset bit within its cell, set those ranked below
    the deficit.  Works on one page or on ``(lanes, page_bits)`` pages."""
    cells = _reference_cells(varray, pages)
    deficits = targets - _reference_levels(varray, pages)
    unset = cells == 0
    ranks = np.cumsum(unset, axis=-1) - unset
    to_set = unset & (ranks < deficits[..., None])
    new_pages = pages.copy()
    new_pages[..., : varray.used_bits] = (cells | to_set.astype(np.uint8)).reshape(
        *pages.shape[:-1], -1
    )
    return new_pages


@pytest.mark.parametrize("lanes", [1, 7])
@pytest.mark.parametrize("levels", [4, 8, 16])
class TestColumnWalkMatchesRankReference:
    """``levels*`` and ``program_levels*`` against the reference above."""

    PAGE_BITS = 200  # leaves 2, 4 and 5 leftover bits for 4/8/16 levels

    def test_successive_programs_byte_for_byte(self, levels: int, lanes: int) -> None:
        varray = VCellArray(VCellSpec(levels=levels), self.PAGE_BITS)
        assert varray.used_bits < varray.page_bits
        rng = np.random.default_rng(levels * 10 + lanes)
        # Arbitrary bit patterns within cells, and set bits in the leftover.
        pages = (rng.random((lanes, self.PAGE_BITS)) < 0.2).astype(np.uint8)
        for round_ in range(5):
            current = _reference_levels(varray, pages)
            assert varray.levels_batch(pages).dtype == np.int64
            assert np.array_equal(varray.levels_batch(pages), current)
            headroom = varray.spec.max_level - current
            # Partly saturate on the way, fully saturate in the last round.
            step = rng.integers(0, levels // 2 + 1, current.shape)
            targets = current + (headroom if round_ == 4 else np.minimum(step, headroom))
            before = pages.copy()
            expected = _reference_program(varray, pages, targets)
            programmed = varray.program_levels_batch(pages, targets)
            assert programmed.dtype == np.uint8
            assert programmed.tobytes() == expected.tobytes()
            assert np.array_equal(pages, before)
            for lane in range(lanes):
                assert np.array_equal(varray.levels(pages[lane]), current[lane])
                single = varray.program_levels(pages[lane], targets[lane])
                assert single.tobytes() == expected[lane].tobytes()
            assert np.array_equal(pages, before)
            pages = programmed
        assert varray.saturated(pages[0]).all()

    def test_same_errors_name_the_first_offender(self, levels: int, lanes: int) -> None:
        varray = VCellArray(VCellSpec(levels=levels), self.PAGE_BITS)
        top = varray.spec.max_level
        lane = lanes - 1
        pages = varray.program_levels_batch(
            np.zeros((lanes, self.PAGE_BITS), np.uint8),
            np.full((lanes, varray.num_cells), 2),
        )
        before = pages.copy()

        lower = np.full((lanes, varray.num_cells), 2)
        lower[lane, 3:] = 1
        message = "cell 3: cannot lower level from L2 to L1 without an erase$"
        with pytest.raises(VCellError, match=f"^lane {lane}, {message}"):
            varray.program_levels_batch(pages, lower)
        with pytest.raises(VCellError, match=f"^{message}"):
            varray.program_levels(pages[lane], lower[lane])

        above = np.full((lanes, varray.num_cells), 2)
        above[lane, 5:] = top + 1
        message = f"cell 5: target level {top + 1} exceeds L{top}$"
        with pytest.raises(CellSaturatedError, match=f"^lane {lane}, {message}"):
            varray.program_levels_batch(pages, above)
        with pytest.raises(CellSaturatedError, match=f"^{message}"):
            varray.program_levels(pages[lane], above[lane])

        with pytest.raises(VCellError, match="target levels, got shape"):
            varray.program_levels_batch(pages, lower[:, :-1])
        with pytest.raises(VCellError, match="target levels, got shape"):
            varray.program_levels(pages[lane], lower[lane, :-1])
        with pytest.raises(VCellError, match=r"expected \(lanes, 200\) pages"):
            varray.program_levels_batch(pages[:, :-1], lower)
        with pytest.raises(VCellError, match="expected a page of 200 bits"):
            varray.program_levels(pages[lane, :-1], lower[lane])
        with pytest.raises(VCellError, match=r"expected \(lanes, 200\) pages"):
            varray.levels_batch(pages[0])
        assert np.array_equal(pages, before)
