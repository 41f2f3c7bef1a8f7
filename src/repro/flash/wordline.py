"""Wordlines: groups of pages whose bits share physical cells.

A single MLC stores one bit on "page x" and one bit on "page y" of the same
block (paper, Section II).  The :class:`Wordline` couples those pages and
enforces the *cell-level* half of the physical interface: any page program
must correspond to a legal transition of every affected cell.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from typing import NoReturn

import numpy as np

from repro.errors import (
    ConfigurationError,
    IllegalTransitionError,
    PageProgramError,
)
from repro.flash.cell import CellModel
from repro.flash.page import Page

__all__ = ["Wordline"]


@functools.lru_cache
def _cell_tables(cell: CellModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pattern_to_level, legal, program_ok)`` of one cell model, read-only.

    A cell's *pattern* is ``sum(bit[page] << page)``; ``pattern_to_level``
    holds -1 where no level has that pattern and ``legal[current, target]``
    is :meth:`CellModel.is_legal_transition`.  ``program_ok[page][2 * pattern
    + new_bit]`` says whether a cell holding ``pattern`` may have ``new_bit``
    programmed on ``page``: both patterns have a level and the move is legal.
    Every wordline of a chip shares these arrays.
    """
    width = cell.pages_per_wordline
    if width > 7:
        raise ConfigurationError(
            f"{cell.kind}: a cell's bit pattern is indexed in uint8, so a "
            f"wordline holds at most 7 pages, not {width}"
        )
    pattern_to_level = np.full(1 << width, -1, dtype=np.int16)
    for level, bits in enumerate(cell.level_to_bits):
        pattern_to_level[sum(bit << page for page, bit in enumerate(bits))] = level
    legal = np.array(
        [[cell.is_legal_transition(current, target)
          for target in range(cell.levels)] for current in range(cell.levels)]
    )
    patterns = np.arange(1 << width)
    program_ok = np.zeros((width, 2 << width), dtype=bool)
    for page in range(width):
        for new_bit in (0, 1):
            target = pattern_to_level[patterns & ~(1 << page) | new_bit << page]
            program_ok[page, new_bit::2] = (
                (pattern_to_level >= 0) & (target >= 0)
                & legal[pattern_to_level, target]
            )
    for table in (pattern_to_level, legal, program_ok):
        table.flags.writeable = False
    return pattern_to_level, legal, program_ok


@functools.lru_cache
def _setting_bits_is_always_legal(cell: CellModel) -> bool:
    """Whether every one-page bit-setting program is a legal cell move.

    True when ``program_ok[page, 2 * pattern + new_bit]`` holds for every
    pattern and every ``new_bit >= bit(pattern, page)``: the indices a
    program that :meth:`Page.validate_program` accepted (0/1 values, no bit
    cleared) can form.  ``new_bit = 1`` covers every pattern, so this also
    says every pattern has a level.  Then the wordline's stacked pass
    cannot refuse such a program and :meth:`Wordline.program_page` skips it.
    Under the paper's Fig. 2 bit mappings this holds for every shipped
    model (SLC, MLC, TLC and the ideal MLC), whose legal single-program
    moves are exactly the one-page bit sets.
    """
    program_ok = _cell_tables(cell)[2]
    patterns = np.arange(1 << cell.pages_per_wordline)
    return all(
        program_ok[page, 2 * patterns + 1].all()
        and program_ok[page, 2 * patterns[(patterns >> page) & 1 == 0]].all()
        for page in range(cell.pages_per_wordline)
    )


def _stack_bits(rows: Sequence[np.ndarray]) -> np.ndarray:
    """``sum(rows[k] << k)`` per cell, in the rows' own uint8."""
    stacked = rows[0]
    for shift, row in enumerate(rows[1:], start=1):
        stacked = stacked | row << shift
    return stacked


class Wordline:
    """``cell.pages_per_wordline`` pages sharing one row of physical cells.

    Page ``0`` is the paper's "page x", page ``1`` is "page y" (and page
    ``2`` exists for TLC).  Each of the ``page_bits`` cell positions takes
    one bit from each page; the combined bit tuple determines the cell's
    charge level via the :class:`~repro.flash.cell.CellModel`.
    """

    __slots__ = ("cell", "pages", "_pattern_to_level", "_legal", "_program_ok",
                 "_check_levels")

    def __init__(self, cell: CellModel, pages: Sequence[Page]) -> None:
        if len(pages) != cell.pages_per_wordline:
            raise PageProgramError(
                f"{cell.kind} wordlines need {cell.pages_per_wordline} pages, "
                f"got {len(pages)}"
            )
        widths = {page.page_bits for page in pages}
        if len(widths) != 1:
            raise PageProgramError("all pages of a wordline must be the same size")
        self.cell = cell
        self.pages = tuple(pages)
        self._pattern_to_level, self._legal, self._program_ok = _cell_tables(cell)
        self._check_levels = not _setting_bits_is_always_legal(cell)

    @property
    def page_bits(self) -> int:
        return self.pages[0].page_bits

    def _levels_of(self, bit_rows: Sequence[np.ndarray]) -> np.ndarray:
        """Map one uint8 bit row per page to per-cell levels."""
        levels = self._pattern_to_level.take(_stack_bits(bit_rows))
        if (levels < 0).any():
            bad = int(np.flatnonzero(levels < 0)[0])
            raise IllegalTransitionError(
                f"cell {bad} holds bit pattern with no defined level for a "
                f"{self.cell.kind} cell"
            )
        return levels

    def read_levels(self) -> np.ndarray:
        """Current charge level of every cell on the wordline."""
        return self._levels_of([page.bits for page in self.pages])

    def program_page(self, page_index: int, new_bits: np.ndarray) -> None:
        """Program one page of the wordline (a single program request).

        Validates bit monotonicity (via the page) *and* that every cell's
        implied level transition is physically legal, then commits.  The
        legality check is one pass over the wordline: each cell's ``2 *
        pattern + new_bit`` looked up in ``program_ok``.  The pass runs only
        for a cell model where a bit-setting program can still be illegal
        (see :func:`_setting_bits_is_always_legal`); on the shipped models
        the page's own check has already decided.
        """
        if not 0 <= page_index < len(self.pages):
            raise PageProgramError(f"wordline has no page {page_index}")
        page = self.pages[page_index]
        target = page.validate_program(new_bits)
        if self._check_levels:
            index = _stack_bits(
                [target, *(sibling.bits for sibling in self.pages)]
            )
            if not self._program_ok[page_index].take(index).all():
                self._refuse_program(page_index, target)
        page.apply_program(target)

    def _refuse_program(self, page_index: int, target: np.ndarray) -> NoReturn:
        """Level by level, to name the first offending cell and its move."""
        current_rows = [page.bits for page in self.pages]
        proposed_rows = list(current_rows)
        proposed_rows[page_index] = target
        current_levels = self._levels_of(current_rows)
        proposed_levels = self._levels_of(proposed_rows)
        ok = self._legal[current_levels, proposed_levels]
        bad = int(np.flatnonzero(~ok)[0])
        raise IllegalTransitionError(
            f"programming page {page_index} would move cell {bad} from "
            f"L{current_levels[bad]} to L{proposed_levels[bad]}, which a "
            f"{self.cell.kind} cell does not support"
        )

    def program_levels(self, target_levels: np.ndarray) -> None:
        """Move every cell to ``target_levels`` using one program per page.

        This is the operation an *ideal-cell* code believes is always
        available.  On a real cell model it raises
        :class:`IllegalTransitionError` whenever any requested per-cell
        transition is not a legal single-program move (e.g. MLC L1 -> L2) or
        would need bits on two pages to change while the model allows only
        one page per program request for that step.

        On the ideal cell model every monotone move succeeds, implemented as
        one program per page of the wordline.
        """
        targets = np.asarray(target_levels)
        if targets.shape != (self.page_bits,):
            raise PageProgramError(
                f"target_levels must have shape ({self.page_bits},)"
            )
        current_levels = self.read_levels()
        ok = self._legal[current_levels, targets]
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise IllegalTransitionError(
                f"cell {bad}: L{current_levels[bad]} -> L{targets[bad]} is not "
                f"a legal single-program transition on a {self.cell.kind} cell"
            )
        level_bits = np.array(self.cell.level_to_bits, dtype=np.uint8)
        new_rows = level_bits[targets].T  # (pages, page_bits)
        for page_index, page in enumerate(self.pages):
            row = np.ascontiguousarray(new_rows[page_index])
            if np.array_equal(row, page.bits):
                continue  # nothing to program on this page
            if self.cell.ideal_interface:
                # Ideal cells have no physical bit constraints; the bit
                # mapping is bookkeeping only.
                page.apply_program(row)
            else:
                page.apply_program(page.validate_program(row))

    def erase(self) -> None:
        """Erase all pages of the wordline (driven by the block erase)."""
        for page in self.pages:
            page.erase()
