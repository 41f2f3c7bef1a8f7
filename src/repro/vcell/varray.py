"""Vectorized virtual-cell views over page-sized bit arrays.

The coding layers never loop over cells in Python; they convert whole pages
between bit and level domains through this module's numpy operations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CellSaturatedError, VCellError
from repro.vcell.vcell import VCellSpec

__all__ = ["VCellArray"]

_BYTE = np.dtype(np.uint8)  # the write path's page dtype: taken as it is


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


def _first(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first True of ``mask``, in C order."""
    return tuple(int(axis[0]) for axis in np.nonzero(mask))


def _where(index: tuple[int, ...]) -> str:
    """``cell c`` on one page, ``lane l, cell c`` in a batch."""
    *lane, cell = index
    return f"lane {lane[0]}, cell {cell}" if lane else f"cell {cell}"


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
        self._cell_shape = (self.num_cells, self.bits_per_cell)

    def _pages(self, pages: np.ndarray, batch: bool) -> np.ndarray:
        """One page (``batch`` False) or ``(lanes, page_bits)`` pages as uint8.

        A page that is not uint8 already (the write path's dtype) is checked
        before it is narrowed: every entry must be 0 or 1.
        """
        bits = np.asarray(pages)
        if bits.ndim != 1 + batch or bits.shape[-1] != self.page_bits:
            shape = f"(lanes, {self.page_bits}) pages" if batch else (
                f"a page of {self.page_bits} bits"
            )
            raise VCellError(f"expected {shape}, got shape {bits.shape}")
        if bits.dtype == _BYTE:
            return bits
        bad = (bits != 0) & (bits != 1)
        if bad.any():
            lane, bit = divmod(int(np.argmax(bad)), self.page_bits)
            value = bits.reshape(-1)[lane * self.page_bits + bit]
            raise VCellError(f"lane {lane}, bit {bit}: {value} is not a bit")
        return bits.astype(np.uint8)

    def _cells(self, bits: np.ndarray) -> np.ndarray:
        """``(..., page_bits)`` uint8 pages as ``(..., num_cells,
        bits_per_cell)``: a view where numpy can make one."""
        return bits[..., : self.used_bits].reshape(bits.shape[:-1] + self._cell_shape)

    def levels(self, page_bits: np.ndarray) -> np.ndarray:
        """Per-cell levels (popcount of each cell's bit group)."""
        return self._popcount(self._cells(self._pages(page_bits, batch=False)))

    def levels_batch(self, pages: np.ndarray) -> np.ndarray:
        """Per-cell levels for ``B`` pages at once: ``(B, num_cells)``."""
        return self._popcount(self._cells(self._pages(pages, batch=True)))

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
            If any target is not an integer or is below the cell's current
            level, or an entry of the page is not a bit.
        CellSaturatedError
            If any target exceeds the maximum level.
        """
        return self._program(page_bits, target_levels, batch=False)

    def program_levels_batch(
        self, pages: np.ndarray, target_levels: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`program_levels`: ``(B, page_bits)`` pages to
        ``(B, num_cells)`` targets, with the same per-cell legality checks
        (their messages lead with the lane).
        """
        return self._program(pages, target_levels, batch=True)

    def _program(self, pages, target_levels, batch: bool) -> np.ndarray:
        """Both faces of :meth:`program_levels`: check, then fill a copy."""
        targets = np.asarray(target_levels)
        new_pages = np.array(self._pages(pages, batch), order="C")
        cells = self._cells(new_pages)  # a view: filled in place below
        if targets.shape != cells.shape[:-1]:
            shape = f"({len(cells)}, {self.num_cells})" if batch else self.num_cells
            raise VCellError(
                f"expected {shape} target levels, got shape {targets.shape}"
            )
        if targets.dtype.kind not in "biu":  # the write path passes int64
            fractional = targets != np.floor(targets)
            if fractional.any():
                at = _first(fractional)
                raise VCellError(
                    f"{_where(at)}: target level {targets[at]} is not an integer"
                )
            targets = targets.astype(np.int64)
        if targets.max(initial=0) > self.spec.max_level:
            at = _first(targets > self.spec.max_level)
            raise CellSaturatedError(
                f"{_where(at)}: target level {targets[at]} exceeds "
                f"L{self.spec.max_level}"
            )
        current = self._popcount(cells)
        if (targets < current).any():
            at = _first(targets < current)
            raise VCellError(
                f"{_where(at)}: cannot lower level from L{current[at]} to "
                f"L{targets[at]} without an erase"
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
