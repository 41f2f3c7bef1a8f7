"""Vectorized virtual-cell views over page-sized bit arrays.

The coding layers never loop over cells in Python; they convert whole pages
between bit and level domains through this module's numpy operations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CellSaturatedError, VCellError
from repro.vcell.vcell import VCellSpec

__all__ = ["VCellArray"]


def _popcount(cells: np.ndarray) -> np.ndarray:
    """Per-cell levels of ``(..., num_cells, bits_per_cell)`` uint8 cells, by
    column adds (numpy reduces a short trailing axis slowly).  A byte that is
    not a bit raises, naming the lane (the flattened leading axes) and bit."""
    if cells.size and cells.max() > 1:
        first = int(np.argmax(cells > 1))  # flat, in C order
        lane, bit = divmod(first, cells.shape[-2] * cells.shape[-1])
        value = cells.reshape(-1)[first]
        raise VCellError(f"lane {lane}, bit {bit}: byte {value} is not a bit")
    levels = cells[..., 0].astype(np.int64)
    for j in range(1, cells.shape[-1]):
        levels += cells[..., j]
    return levels


def _fill(cells: np.ndarray, deficits: np.ndarray) -> None:
    """Program in place: set each cell's ``deficits`` lowest unset bits."""
    for j in range(cells.shape[-1]):
        fill = (cells[..., j] == 0) & (deficits > 0)
        cells[..., j] |= fill
        deficits -= fill


class VCellArray:
    """Interprets a page's bits as an array of ``L``-level v-cells.

    The view is stateless with respect to the page: every method takes and
    returns plain numpy arrays, so the same instance can serve many pages.
    A page of ``page_bits`` bits holds ``page_bits // (levels - 1)`` v-cells;
    leftover bits (when ``levels - 1`` does not divide the page) are ignored,
    mirroring how a real FTL would leave them unused.

    ``popcount`` is a kernel backend's ``levels``, with the signature, bytes
    and errors of :func:`_popcount`; every level read and program counts
    through it.
    """

    def __init__(self, spec: VCellSpec, page_bits: int, popcount=_popcount) -> None:
        self.spec = spec
        self._popcount = popcount
        self.page_bits = int(page_bits)
        self.bits_per_cell = spec.bits_per_cell
        self.num_cells = self.page_bits // self.bits_per_cell
        if self.num_cells == 0:
            raise VCellError(
                f"a {self.page_bits}-bit page cannot hold any "
                f"{spec.levels}-level v-cells ({self.bits_per_cell} bits each)"
            )
        self.used_bits = self.num_cells * self.bits_per_cell

    def _cell_matrix(self, page_bits: np.ndarray) -> np.ndarray:
        """Reshape the used portion of a page into (num_cells, bits_per_cell)."""
        bits = np.asarray(page_bits, dtype=np.uint8)
        if bits.shape != (self.page_bits,):
            raise VCellError(
                f"expected a page of {self.page_bits} bits, got shape {bits.shape}"
            )
        return bits[: self.used_bits].reshape(self.num_cells, self.bits_per_cell)

    def _cell_matrix_batch(self, pages: np.ndarray) -> np.ndarray:
        """Reshape ``(B, page_bits)`` pages into ``(B, num_cells, bits_per_cell)``."""
        bits = np.asarray(pages, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.page_bits:
            raise VCellError(
                f"expected (lanes, {self.page_bits}) pages, got shape {bits.shape}"
            )
        return bits[:, : self.used_bits].reshape(
            len(bits), self.num_cells, self.bits_per_cell
        )

    def levels(self, page_bits: np.ndarray) -> np.ndarray:
        """Per-cell levels (popcount of each cell's bit group)."""
        return self._popcount(self._cell_matrix(page_bits))

    def levels_batch(self, pages: np.ndarray) -> np.ndarray:
        """Per-cell levels for ``B`` pages at once: ``(B, num_cells)``."""
        return self._popcount(self._cell_matrix_batch(pages))

    def erased_page(self) -> np.ndarray:
        """A fresh all-zero page buffer."""
        return np.zeros(self.page_bits, dtype=np.uint8)

    def program_levels(self, page_bits: np.ndarray, target_levels: np.ndarray) -> np.ndarray:
        """Return new page bits realizing ``target_levels``.

        For each cell the lowest-index unset bits are set until the cell
        reaches its target level.  Within a level all bit representations are
        interchangeable for popcount v-cells (any superset pattern of any
        higher weight stays reachable), so the lowest-bit-first choice loses
        no future flexibility.

        Raises
        ------
        VCellError
            If any target is below the cell's current level, or a byte of the
            page is not a bit.
        CellSaturatedError
            If any target exceeds the maximum level.
        """
        targets = np.asarray(target_levels)
        if targets.shape != (self.num_cells,):
            raise VCellError(
                f"expected {self.num_cells} target levels, got shape {targets.shape}"
            )
        if targets.max(initial=0) > self.spec.max_level:
            bad = int(np.flatnonzero(targets > self.spec.max_level)[0])
            raise CellSaturatedError(
                f"cell {bad}: target level {targets[bad]} exceeds "
                f"L{self.spec.max_level}"
            )
        new_page = np.array(page_bits, dtype=np.uint8, order="C")
        cells = self._cell_matrix(new_page)  # a view: filled in place below
        current = self._popcount(cells)
        if (targets < current).any():
            bad = int(np.flatnonzero(targets < current)[0])
            raise VCellError(
                f"cell {bad}: cannot lower level from L{current[bad]} to "
                f"L{targets[bad]} without an erase"
            )
        _fill(cells, targets - current)
        return new_page

    def program_levels_batch(
        self, pages: np.ndarray, target_levels: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`program_levels`: ``(B, page_bits)`` pages to
        ``(B, num_cells)`` targets, with the same per-cell legality checks.
        """
        targets = np.asarray(target_levels)
        new_pages = np.array(pages, dtype=np.uint8, order="C")
        cells = self._cell_matrix_batch(new_pages)  # a view: filled in place below
        if targets.shape != cells.shape[:2]:
            raise VCellError(
                f"expected ({len(cells)}, {self.num_cells}) target levels, got "
                f"shape {targets.shape}"
            )
        if targets.max(initial=0) > self.spec.max_level:
            lane, cell = (arr[0] for arr in np.nonzero(targets > self.spec.max_level))
            raise CellSaturatedError(
                f"lane {lane}, cell {cell}: target level "
                f"{targets[lane, cell]} exceeds L{self.spec.max_level}"
            )
        current = self._popcount(cells)
        if (targets < current).any():
            lane, cell = (arr[0] for arr in np.nonzero(targets < current))
            raise VCellError(
                f"lane {lane}, cell {cell}: cannot lower level from "
                f"L{current[lane, cell]} to L{targets[lane, cell]} without "
                "an erase"
            )
        _fill(cells, targets - current)
        return new_pages

    def saturated(self, page_bits: np.ndarray) -> np.ndarray:
        """Boolean mask of cells at the maximum level."""
        return self.levels(page_bits) == self.spec.max_level

    def headroom(self, page_bits: np.ndarray) -> int:
        """Total level increments still available across the page."""
        return int(self.num_cells * self.spec.max_level - self.levels(page_bits).sum())

    def level_histogram(self, page_bits: np.ndarray) -> np.ndarray:
        """Count of cells at each level (length ``levels`` array)."""
        return np.bincount(self.levels(page_bits), minlength=self.spec.levels)
