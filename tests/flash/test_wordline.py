"""Tests for wordlines coupling pages onto shared physical cells."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    IllegalTransitionError,
    PageProgramError,
    PartialProgramLimitError,
)
from repro.flash import (
    IDEAL_MLC, MLC, SLC, TLC, CellModel, Page, PageState, Wordline,
)
from repro.flash import wordline as wordline_module
from repro.flash.wordline import _cell_tables, _setting_bits_is_always_legal

#: Three levels on two pages: the bit pattern (0, 1) has no level, so the
#: "no defined level" refusal is reachable through ``program_page``.
THREE_LEVEL = CellModel(
    kind="three", levels=3, level_to_bits=((0, 0), (1, 0), (1, 1))
)
#: An ideal-interface cell whose levels do not grow with its bits, so a
#: single-page program can ask for a level *decrease*: the one way to reach
#: the "would move cell" refusal through ``program_page``.
SCRAMBLED_IDEAL = CellModel(
    kind="scrambled", levels=4,
    level_to_bits=((0, 0), (1, 1), (1, 0), (0, 1)),
    single_page_program=False, ideal_interface=True,
)
CELLS = (SLC, MLC, TLC, IDEAL_MLC, THREE_LEVEL, SCRAMBLED_IDEAL)
SHIPPED_CELLS = (SLC, MLC, TLC, IDEAL_MLC)


def make_wordline(cell=MLC, page_bits: int = 8) -> Wordline:
    pages = [Page(page_bits) for _ in range(cell.pages_per_wordline)]
    return Wordline(cell, pages)


class TestReadLevels:
    def test_erased_wordline_is_all_l0(self) -> None:
        wordline = make_wordline()
        assert np.array_equal(wordline.read_levels(), np.zeros(8, int))

    def test_levels_follow_bit_patterns(self) -> None:
        wordline = make_wordline(page_bits=4)
        # Program page x (index 0) of cells 0 and 1 -> those cells go to L1.
        wordline.program_page(0, np.array([1, 1, 0, 0], np.uint8))
        assert wordline.read_levels().tolist() == [1, 1, 0, 0]
        # Program page y of cell 1 (L1 -> L3) and cell 2 (L0 -> L2).
        wordline.program_page(1, np.array([0, 1, 1, 0], np.uint8))
        assert wordline.read_levels().tolist() == [1, 3, 2, 0]


class TestProgramPageConstraints:
    def test_programming_one_page_moves_levels_legally(self) -> None:
        wordline = make_wordline(page_bits=2)
        wordline.program_page(0, np.array([1, 0], np.uint8))  # cell0 L0->L1
        wordline.program_page(1, np.array([1, 1], np.uint8))  # L1->L3, L0->L2
        assert wordline.read_levels().tolist() == [3, 2]

    def test_clearing_bits_rejected_via_page(self) -> None:
        wordline = make_wordline(page_bits=2)
        wordline.program_page(0, np.array([1, 1], np.uint8))
        with pytest.raises(PageProgramError):
            wordline.program_page(0, np.array([0, 1], np.uint8))

    def test_wrong_page_index(self) -> None:
        wordline = make_wordline(page_bits=2)
        with pytest.raises(PageProgramError):
            wordline.program_page(2, np.zeros(2, np.uint8))


class TestProgramLevels:
    """program_levels is the call an ideal-cell code would make."""

    def test_real_mlc_rejects_l1_to_l2(self) -> None:
        wordline = make_wordline(page_bits=2)
        wordline.program_levels(np.array([1, 0]))
        with pytest.raises(IllegalTransitionError, match="L1 to L2|L1 -> L2"):
            wordline.program_levels(np.array([2, 0]))

    def test_real_mlc_rejects_one_shot_l0_to_l3(self) -> None:
        wordline = make_wordline(page_bits=2)
        with pytest.raises(IllegalTransitionError):
            wordline.program_levels(np.array([3, 0]))

    def test_real_mlc_allows_two_step_l0_to_l3(self) -> None:
        wordline = make_wordline(page_bits=2)
        wordline.program_levels(np.array([1, 0]))
        wordline.program_levels(np.array([3, 0]))
        assert wordline.read_levels().tolist() == [3, 0]

    def test_ideal_mlc_accepts_any_increase(self) -> None:
        wordline = make_wordline(cell=IDEAL_MLC, page_bits=4)
        wordline.program_levels(np.array([3, 2, 1, 0]))
        assert wordline.read_levels().tolist() == [3, 2, 1, 0]
        wordline.program_levels(np.array([3, 3, 2, 1]))
        assert wordline.read_levels().tolist() == [3, 3, 2, 1]

    def test_ideal_mlc_rejects_decrease(self) -> None:
        wordline = make_wordline(cell=IDEAL_MLC, page_bits=2)
        wordline.program_levels(np.array([2, 0]))
        with pytest.raises(IllegalTransitionError):
            wordline.program_levels(np.array([1, 0]))

    def test_shape_checked(self) -> None:
        wordline = make_wordline(page_bits=2)
        with pytest.raises(PageProgramError):
            wordline.program_levels(np.array([1, 0, 0]))

    def test_slc_wordline(self) -> None:
        wordline = make_wordline(cell=SLC, page_bits=4)
        wordline.program_levels(np.array([1, 0, 1, 0]))
        assert wordline.read_levels().tolist() == [1, 0, 1, 0]
        with pytest.raises(IllegalTransitionError):
            wordline.program_levels(np.array([0, 0, 1, 0]))


class TestEraseAndConstruction:
    def test_erase_resets_levels(self) -> None:
        wordline = make_wordline(page_bits=2)
        wordline.program_page(0, np.array([1, 1], np.uint8))
        wordline.erase()
        assert wordline.read_levels().tolist() == [0, 0]

    def test_wrong_page_count_rejected(self) -> None:
        with pytest.raises(PageProgramError):
            Wordline(MLC, [Page(4)])

    def test_mismatched_page_sizes_rejected(self) -> None:
        with pytest.raises(PageProgramError):
            Wordline(MLC, [Page(4), Page(8)])


def reference_refusal(cell, pages, page_index, buffer):
    """Why the chip must refuse this program, cell by cell in plain Python.

    ``None`` when it must accept, else ``(exception type, message)`` of the
    first check that fails, in the order the chip makes them.
    """
    page = pages[page_index]
    limit = page.max_partial_programs
    if limit is not None and page.program_count >= limit:
        return PartialProgramLimitError, (
            f"page already programmed {page.program_count} times "
            f"(NOP limit {limit}); erase required"
        )
    new = list(buffer)
    if len(new) != page.page_bits:
        return PageProgramError, (
            f"program buffer has shape ({len(new)},), page holds "
            f"{page.page_bits} bits"
        )
    if any(value not in (0, 1) for value in new):
        return PageProgramError, "program buffer must contain only 0/1 values"
    stored = [p.read().tolist() for p in pages]
    cleared = [
        i for i, (old, bit) in enumerate(zip(stored[page_index], new))
        if old == 1 and bit == 0
    ]
    if cleared:
        return PageProgramError, (
            f"program would clear bit(s) at positions {cleared[:8]}; bits can "
            "only be set (0 -> 1) without an erase"
        )
    proposed = [new if i == page_index else row for i, row in enumerate(stored)]
    level_of = {bits: level for level, bits in enumerate(cell.level_to_bits)}
    current_levels = [level_of.get(bits) for bits in zip(*stored)]
    proposed_levels = [level_of.get(bits) for bits in zip(*proposed)]
    for levels in (current_levels, proposed_levels):
        for index, level in enumerate(levels):
            if level is None:
                return IllegalTransitionError, (
                    f"cell {index} holds bit pattern with no defined level "
                    f"for a {cell.kind} cell"
                )
    for index, (old, target) in enumerate(zip(current_levels, proposed_levels)):
        if not cell.is_legal_transition(old, target):
            return IllegalTransitionError, (
                f"programming page {page_index} would move cell {index} from "
                f"L{old} to L{target}, which a {cell.kind} cell does not support"
            )
    return None


class TestProgramTable:
    """``program_ok[page][2 * pattern + new_bit]``, one table per cell model."""

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.kind)
    def test_equals_is_legal_transition_exhaustively(self, cell) -> None:
        program_ok = _cell_tables(cell)[2]
        width = cell.pages_per_wordline
        assert program_ok.shape == (width, 2 << width)
        assert program_ok.dtype == bool
        level_of = {bits: level for level, bits in enumerate(cell.level_to_bits)}
        for page in range(width):
            for pattern in range(1 << width):
                bits = tuple((pattern >> p) & 1 for p in range(width))
                for new_bit in (0, 1):
                    proposed = bits[:page] + (new_bit,) + bits[page + 1:]
                    current, target = level_of.get(bits), level_of.get(proposed)
                    expected = (
                        current is not None
                        and target is not None
                        and cell.is_legal_transition(current, target)
                    )
                    assert program_ok[page, 2 * pattern + new_bit] == expected

    def test_built_once_per_cell_model_and_read_only(self) -> None:
        assert _cell_tables(MLC) is _cell_tables(MLC)
        for table in _cell_tables(MLC):
            with pytest.raises(ValueError):
                table[...] = 0

    def test_more_pages_than_a_uint8_pattern_holds_refused(self) -> None:
        wide = CellModel(
            kind="wide", levels=256,
            level_to_bits=tuple(
                tuple((value >> page) & 1 for page in range(8))
                for value in range(256)
            ),
        )
        with pytest.raises(ConfigurationError, match="at most 7 pages"):
            Wordline(wide, [Page(2) for _ in range(8)])


class TestProgramPageAgainstReference:
    """The chip's legality check against a per-cell reference.

    ``make ftl-oracle`` runs this under its three fixed hypothesis seeds:
    the FTL oracle's chip-image equality rests on this check.
    """

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_refuses_like_the_reference(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        cell = CELLS[rng.integers(len(CELLS))]
        page_bits = int(rng.integers(1, 13))
        limit = None if rng.random() < 0.7 else 2
        pages = [
            Page(page_bits, max_partial_programs=limit)
            for _ in range(cell.pages_per_wordline)
        ]
        # Any stored state, patterns without a level included: committed
        # behind the wordline's back, the way a snapshot restore would.
        for page in pages:
            for _ in range(rng.integers(0, 3)):
                page.apply_program(
                    page.read() | (rng.random(page_bits) < 0.3).astype(np.uint8)
                )
        wordline = Wordline(cell, pages)
        page_index = int(rng.integers(len(pages)))
        stored = pages[page_index].read()
        flips = (rng.random(page_bits) < 0.4).astype(np.uint8)
        kind = rng.choice(
            ["monotone", "any", "non-binary", "wrong-shape"],
            p=[0.5, 0.3, 0.1, 0.1],
        )
        if kind == "monotone":
            buffer = stored | flips
        elif kind == "any":
            buffer = stored ^ flips
        elif kind == "non-binary":
            buffer = stored | flips
            buffer[rng.integers(page_bits)] = rng.integers(2, 256)
        else:
            buffer = np.zeros(page_bits + int(rng.choice([-1, 1])), np.uint8)

        before = [(p.read(), p.state, p.program_count) for p in pages]
        expected = reference_refusal(cell, pages, page_index, buffer.tolist())
        if expected is None:
            wordline.program_page(page_index, buffer)
            before[page_index] = (
                buffer, PageState.PROGRAMMED, before[page_index][2] + 1
            )
        else:
            error, message = expected
            with pytest.raises(error) as raised:
                wordline.program_page(page_index, buffer)
            assert type(raised.value) is error
            assert str(raised.value) == message
        for page, (bits, state, count) in zip(pages, before):
            assert np.array_equal(page.read(), bits)
            assert page.state is state
            assert page.program_count == count

    def test_every_refusal_is_reachable(self) -> None:
        """The property above is vacuous for a refusal it never draws."""
        refusals = set()
        for seed in range(400):
            rng = np.random.default_rng(seed)
            cell = CELLS[rng.integers(len(CELLS))]
            pages = [Page(4) for _ in range(cell.pages_per_wordline)]
            for page in pages:
                page.apply_program((rng.random(4) < 0.3).astype(np.uint8))
            page_index = int(rng.integers(len(pages)))
            buffer = pages[page_index].read() | (rng.random(4) < 0.4)
            refused = reference_refusal(cell, pages, page_index, buffer.tolist())
            if refused is not None:
                refusals.add(refused[1].split(" ")[0])
        assert refusals == {"cell", "programming"}


class TestStackedPassFold:
    """``program_page`` skips the stacked pass where it cannot refuse."""

    @staticmethod
    def brute_force(cell) -> bool:
        """Every stored state, every page, every bit-setting new bit."""
        width = cell.pages_per_wordline
        level_of = {bits: level for level, bits in enumerate(cell.level_to_bits)}
        for pattern in range(1 << width):
            bits = tuple((pattern >> p) & 1 for p in range(width))
            if bits not in level_of:
                return False
            for page in range(width):
                for new_bit in range(bits[page], 2):
                    proposed = bits[:page] + (new_bit,) + bits[page + 1:]
                    if proposed not in level_of or not cell.is_legal_transition(
                        level_of[bits], level_of[proposed]
                    ):
                        return False
        return True

    @pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.kind)
    def test_flag_equals_brute_force(self, cell) -> None:
        flag = _setting_bits_is_always_legal(cell)
        assert flag == self.brute_force(cell)
        assert flag == (cell in SHIPPED_CELLS)

    @pytest.fixture
    def no_stacking(self, monkeypatch):
        class StackedPassRan(Exception):
            pass

        def refuse(rows):
            raise StackedPassRan

        monkeypatch.setattr(wordline_module, "_stack_bits", refuse)
        return StackedPassRan

    @pytest.mark.parametrize("cell", SHIPPED_CELLS, ids=lambda cell: cell.kind)
    def test_shipped_cells_never_stack(self, cell, no_stacking) -> None:
        rng = np.random.default_rng(7)
        wordline = make_wordline(cell=cell, page_bits=16)
        for _ in range(12):
            page_index = int(rng.integers(cell.pages_per_wordline))
            page = wordline.pages[page_index]
            buffer = page.read() | (rng.random(16) < 0.2).astype(np.uint8)
            wordline.program_page(page_index, buffer)
            assert np.array_equal(page.read(), buffer)
        programmed = next(p for p, page in enumerate(wordline.pages)
                          if page.read().any())
        stored = wordline.pages[programmed].read()
        position = int(np.flatnonzero(stored)[0])
        cleared = stored.copy()
        cleared[position] = 0
        with pytest.raises(PageProgramError,
                           match=rf"clear bit\(s\) at positions \[{position}\]"):
            wordline.program_page(programmed, cleared)
        assert np.array_equal(wordline.pages[programmed].read(), stored)

    def test_three_level_cell_still_stacks(self, no_stacking) -> None:
        wordline = make_wordline(cell=THREE_LEVEL, page_bits=4)
        with pytest.raises(no_stacking):
            wordline.program_page(0, np.array([1, 0, 0, 0], np.uint8))
