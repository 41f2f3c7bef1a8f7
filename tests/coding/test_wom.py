"""Tests for the Fig. 9 WOM code on 4-level v-cells."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import WomVCellCode
from repro.coding.wom import WOM_NEXT_PATTERN, WOM_VALUE_OF_PATTERN
from repro.errors import CodingError, UnwritableError


class TestTables:
    def test_every_pattern_stores_a_value(self) -> None:
        assert set(WOM_VALUE_OF_PATTERN.tolist()) == {0, 1, 2, 3}

    def test_complement_pairs_store_same_value(self) -> None:
        for pattern in range(8):
            assert (
                WOM_VALUE_OF_PATTERN[pattern]
                == WOM_VALUE_OF_PATTERN[pattern ^ 0b111]
            )

    def test_transitions_only_set_bits(self) -> None:
        for pattern in range(8):
            for value in range(4):
                target = WOM_NEXT_PATTERN[pattern, value]
                if target >= 0:
                    assert (pattern & target) == pattern

    def test_transitions_reach_requested_value(self) -> None:
        for pattern in range(8):
            for value in range(4):
                target = WOM_NEXT_PATTERN[pattern, value]
                if target >= 0:
                    assert WOM_VALUE_OF_PATTERN[target] == value

    def test_two_writes_always_possible_from_erased(self) -> None:
        """The Rivest-Shamir guarantee: any value, then any other value."""
        for first in range(4):
            after_first = WOM_NEXT_PATTERN[0, first]
            assert after_first >= 0
            for second in range(4):
                assert WOM_NEXT_PATTERN[after_first, second] >= 0

    def test_third_write_sometimes_impossible(self) -> None:
        blocked = 0
        for first in range(4):
            p1 = WOM_NEXT_PATTERN[0, first]
            for second in range(4):
                if second == first:
                    continue
                p2 = WOM_NEXT_PATTERN[p1, second]
                for third in range(4):
                    if WOM_NEXT_PATTERN[p2, third] < 0:
                        blocked += 1
        assert blocked > 0

    def test_figure9_style_walk_four_updates(self) -> None:
        """A lucky cell can take several updates (Fig. 9's example)."""
        pattern = 0
        updates = 0
        for value in (1, 2, 0, 0):  # ends on repeated/complement values
            target = WOM_NEXT_PATTERN[pattern, value]
            assert target >= 0
            if target != pattern:
                updates += 1
            pattern = target
        assert updates >= 3

    def test_saturated_cell_keeps_only_its_value(self) -> None:
        value_at_111 = WOM_VALUE_OF_PATTERN[0b111]
        for value in range(4):
            target = WOM_NEXT_PATTERN[0b111, value]
            if value == value_at_111:
                assert target == 0b111
            else:
                assert target == -1


class TestPageCode:
    def test_rate_is_two_thirds(self) -> None:
        code = WomVCellCode(page_bits=300)
        assert code.rate == pytest.approx(2 / 3)
        assert code.dataword_bits == 200

    def test_roundtrip_two_writes(self) -> None:
        code = WomVCellCode(page_bits=300)
        rng = np.random.default_rng(0)
        page = np.zeros(300, np.uint8)
        for _ in range(2):
            data = rng.integers(0, 2, code.dataword_bits).astype(np.uint8)
            page = code.encode(data, page)
            assert np.array_equal(code.decode(page), data)

    def test_third_random_write_fails_on_large_page(self) -> None:
        code = WomVCellCode(page_bits=3000)
        rng = np.random.default_rng(1)
        page = np.zeros(3000, np.uint8)
        for _ in range(2):
            data = rng.integers(0, 2, code.dataword_bits).astype(np.uint8)
            page = code.encode(data, page)
        with pytest.raises(UnwritableError):
            code.encode(
                rng.integers(0, 2, code.dataword_bits).astype(np.uint8), page
            )

    def test_rewriting_same_data_is_free(self) -> None:
        code = WomVCellCode(page_bits=300)
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2, code.dataword_bits).astype(np.uint8)
        page = code.encode(data, np.zeros(300, np.uint8))
        again = code.encode(data, page)
        assert np.array_equal(page, again)

    def test_only_sets_bits(self) -> None:
        code = WomVCellCode(page_bits=300)
        rng = np.random.default_rng(3)
        page = np.zeros(300, np.uint8)
        for _ in range(2):
            data = rng.integers(0, 2, code.dataword_bits).astype(np.uint8)
            new_page = code.encode(data, page)
            assert ((page == 1) <= (new_page == 1)).all()
            page = new_page

    def test_bad_shapes(self) -> None:
        code = WomVCellCode(page_bits=300)
        with pytest.raises(CodingError):
            code.encode(np.zeros(5, np.uint8), np.zeros(300, np.uint8))
        with pytest.raises(CodingError):
            code.decode(np.zeros(299, np.uint8))

    def test_updates_guaranteed(self) -> None:
        assert WomVCellCode(page_bits=300).updates_guaranteed() == 2

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_two_write_guarantee_property(self, seed: int) -> None:
        code = WomVCellCode(page_bits=96)
        rng = np.random.default_rng(seed)
        page = np.zeros(96, np.uint8)
        for _ in range(2):
            data = rng.integers(0, 2, code.dataword_bits).astype(np.uint8)
            page = code.encode(data, page)
            assert np.array_equal(code.decode(page), data)


def table_walk_encode(code, data, page):
    """One WOM write, one cell at a time; ``None`` where a cell is stuck."""
    new_page = [int(bit) for bit in page]
    for cell in range(code.num_cells):
        pattern = sum(int(page[3 * cell + k]) << k for k in range(3))
        value = int(data[2 * cell]) | int(data[2 * cell + 1]) << 1
        target = int(WOM_NEXT_PATTERN[pattern, value])
        if target < 0:
            return None
        for k in range(3):
            new_page[3 * cell + k] = (target >> k) & 1
    return new_page


def table_walk_decode(code, page):
    data = []
    for cell in range(code.num_cells):
        pattern = sum(int(page[3 * cell + k]) << k for k in range(3))
        value = int(WOM_VALUE_OF_PATTERN[pattern])
        data += [value & 1, value >> 1]
    return data


class TestAgainstTableWalk:
    """``encode``/``decode`` and their batch forms against a per-cell walk."""

    PAGE_BITS = 32  # 10 cells and two tail bits no cell owns

    def written_pages(self, code, rng, lanes: int) -> np.ndarray:
        """Pages after zero to two writes, with random tail bits set."""
        pages = np.zeros((lanes, self.PAGE_BITS), np.uint8)
        for lane in range(lanes):
            for _ in range(rng.integers(0, 3)):
                data = rng.integers(0, 2, code.dataword_bits, dtype=np.uint8)
                pages[lane] = code.encode(data, pages[lane])
        pages[:, code.varray.used_bits:] = rng.integers(
            0, 2, (lanes, self.PAGE_BITS - code.varray.used_bits)
        )
        return pages

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_scalar_forms(self, seed: int) -> None:
        code = WomVCellCode(self.PAGE_BITS)
        assert code.varray.used_bits == 30
        rng = np.random.default_rng(seed)
        page = self.written_pages(code, rng, 1)[0]
        assert code.decode(page).tolist() == table_walk_decode(code, page)
        data = rng.integers(0, 2, code.dataword_bits, dtype=np.uint8)
        expected = table_walk_encode(code, data, page)
        before = page.copy()
        if expected is None:
            with pytest.raises(UnwritableError, match="no reachable pattern"):
                code.encode(data, page)
        else:
            new_page = code.encode(data, page)
            assert new_page.dtype == np.uint8
            assert new_page.tolist() == expected  # tail bits carried over
            assert code.decode(new_page).tolist() == data.tolist()
        assert np.array_equal(page, before)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_batch_forms(self, seed: int) -> None:
        code = WomVCellCode(self.PAGE_BITS)
        rng = np.random.default_rng(seed)
        pages = self.written_pages(code, rng, 5)
        datawords = rng.integers(0, 2, (5, code.dataword_bits), dtype=np.uint8)
        decoded = code.decode_batch(pages)
        assert decoded.dtype == np.uint8
        assert decoded.tolist() == [table_walk_decode(code, p) for p in pages]
        before = pages.copy()
        new_pages, writable = code.encode_batch(datawords, pages)
        assert np.array_equal(pages, before)
        assert new_pages.dtype == np.uint8 and writable.dtype == bool
        for lane in range(5):
            expected = table_walk_encode(code, datawords[lane], pages[lane])
            assert writable[lane] == (expected is not None)
            assert new_pages[lane].tolist() == (
                pages[lane].tolist() if expected is None else expected
            )

    def test_unwritable_lane_in_the_middle_of_a_batch(self) -> None:
        code = WomVCellCode(self.PAGE_BITS)
        rng = np.random.default_rng(5)
        pages = np.zeros((3, self.PAGE_BITS), np.uint8)
        pages[1, :3] = 1  # cell 0 of lane 1 saturated at 111 (value 00)
        pages[:, 30:] = 1
        datawords = rng.integers(0, 2, (3, code.dataword_bits), dtype=np.uint8)
        datawords[1, :2] = (1, 0)  # ... and asked for value 01
        new_pages, writable = code.encode_batch(datawords, pages)
        assert writable.tolist() == [True, False, True]
        assert np.array_equal(new_pages[1], pages[1])
        for lane in (0, 2):
            assert np.array_equal(
                new_pages[lane], code.encode(datawords[lane], pages[lane])
            )
            assert new_pages[lane, 30:].tolist() == [1, 1]
        assert np.array_equal(
            code.decode_batch(new_pages)[[0, 2]], datawords[[0, 2]]
        )
