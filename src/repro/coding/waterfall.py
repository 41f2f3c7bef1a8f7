"""Plain waterfall coding (paper Fig. 3).

One data bit per ``L``-level v-cell, stored as the level's parity.  Updating
a cell's bit raises its level by one; a cell at the top level can no longer
flip.  Without coset freedom this collapses quickly at page granularity —
the scheme exists as a baseline/ablation showing why MFCs pair waterfall
cells with coset selection.
"""

from __future__ import annotations

import numpy as np

from repro.coding.page_code import PageCode
from repro.errors import UnwritableError
from repro.vcell import VCellArray, VCellSpec

__all__ = ["WaterfallCode"]


class WaterfallCode(PageCode):
    """Uncoded waterfall storage: dataword bit ``i`` lives in v-cell ``i``."""

    def __init__(self, page_bits: int, vcell_levels: int = 4) -> None:
        self.varray = VCellArray(VCellSpec(vcell_levels), page_bits)
        self.page_bits = int(page_bits)
        self.dataword_bits = self.varray.num_cells

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        data = self._datawords(dataword, batch=False)
        levels = self.varray.levels(page)
        flips = (levels % 2) != data
        targets = levels + flips
        if targets.max(initial=0) > self.varray.spec.max_level:
            raise UnwritableError(
                "a saturated v-cell would need its bit flipped; erase required"
            )
        return self.varray.program_levels(page, targets)

    def decode(self, page: np.ndarray) -> np.ndarray:
        return (self.varray.levels(page) % 2).astype(np.uint8)
