"""Rank modulation (Jiang, Mateescu, Schwartz, Bruck — cited as [1]).

Rank modulation stores data in the *relative order* of cell charges rather
than in absolute levels: a group of ``n`` cells encodes one of ``n!``
permutations, and rewriting uses "push-to-top" operations that only ever
add charge.  It is a classic ideal-cell endurance code: it needs cells with
many levels and arbitrary increments, which real 4-level MLC does not offer
— but the paper's virtual cells do, so this module runs it on v-cells of
any level count (Fig. 7's 8-level cells make a natural home).

Encoding uses the factoradic (Lehmer) index of the permutation, so a group
of ``n`` v-cells stores ``floor(log2(n!))`` bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.coding.bitops import pack_values
from repro.coding.page_code import PageCode
from repro.errors import CodingError, ConfigurationError, UnwritableError
from repro.vcell import VCellArray, VCellSpec

__all__ = ["RankModulationCode", "permutation_from_index", "index_from_permutation"]


def permutation_from_index(index: int, n: int) -> tuple[int, ...]:
    """The ``index``-th permutation of ``range(n)`` in Lehmer order."""
    if not 0 <= index < math.factorial(n):
        raise CodingError(f"permutation index {index} out of range for n={n}")
    items = list(range(n))
    result = []
    for position in range(n, 0, -1):
        block = math.factorial(position - 1)
        digit, index = divmod(index, block)
        result.append(items.pop(digit))
    return tuple(result)


def index_from_permutation(permutation: tuple[int, ...]) -> int:
    """Inverse of :func:`permutation_from_index`."""
    n = len(permutation)
    items = list(range(n))
    index = 0
    for position, value in enumerate(permutation):
        digit = items.index(value)
        index += digit * math.factorial(n - position - 1)
        items.pop(digit)
    return index


class RankModulationCode(PageCode):
    """Rank modulation over groups of v-cells.

    Parameters
    ----------
    page_bits:
        Raw page size in bits.
    group_cells:
        Cells per rank-modulation group (``n``); each group stores
        ``floor(log2(n!))`` bits.
    vcell_levels:
        Levels per v-cell; rank modulation wants headroom, so 8+ levels
        (7+ bits per cell) is the intended configuration.

    The permutation is "charge rank": the cell holding the *bottom* of the
    permutation has the lowest level.  A group with all-equal charges (the
    erased state) represents the identity permutation.
    """

    def __init__(
        self,
        page_bits: int,
        group_cells: int = 4,
        vcell_levels: int = 8,
    ) -> None:
        if group_cells < 2:
            raise ConfigurationError("rank modulation needs >= 2 cells per group")
        self.varray = VCellArray(VCellSpec(vcell_levels), page_bits)
        self.page_bits = int(page_bits)
        self.group_cells = group_cells
        self.num_groups = self.varray.num_cells // group_cells
        if self.num_groups == 0:
            raise ConfigurationError(
                f"page holds {self.varray.num_cells} v-cells, fewer than one "
                f"group of {group_cells}"
            )
        self.bits_per_group = int(math.floor(math.log2(math.factorial(group_cells))))
        self.dataword_bits = self.num_groups * self.bits_per_group
        self._max_level = vcell_levels - 1

    # -- permutation <-> charges ------------------------------------------------

    @staticmethod
    def _ranks(charges: np.ndarray) -> tuple[int, ...]:
        """Permutation encoded by a charge vector (ties broken by index).

        ``result[r]`` is the cell occupying rank ``r`` (bottom first).
        Stable tie-breaking makes the erased state the identity.
        """
        order = np.argsort(charges, kind="stable")
        return tuple(int(cell) for cell in order)

    def _push_to_order(
        self, charges: np.ndarray, permutation: tuple[int, ...]
    ) -> np.ndarray:
        """Minimal monotone charge updates realizing ``permutation``.

        Walk the target permutation bottom-to-top; every cell whose charge
        does not already exceed the running floor is pushed just above it
        (the push-to-top primitive generalized to push-above).
        """
        new_charges = charges.copy()
        floor = -1
        for cell in permutation:
            if new_charges[cell] > floor:
                floor = int(new_charges[cell])
            else:
                floor += 1
                new_charges[cell] = floor
        if floor > self._max_level:
            raise UnwritableError(
                "rank-modulation push exceeds the top level; erase required"
            )
        return new_charges

    # -- PageCode interface ------------------------------------------------------

    def _group_charges(self, page: np.ndarray) -> np.ndarray:
        levels = self.varray.levels(page)
        used = self.num_groups * self.group_cells
        return levels[:used].reshape(self.num_groups, self.group_cells)

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        data = self._datawords(dataword, batch=False)
        charges = self._group_charges(page)
        indices = pack_values(data, self.bits_per_group)
        new_charges = charges.copy()
        for group in range(self.num_groups):
            permutation = permutation_from_index(
                int(indices[group]), self.group_cells
            )
            new_charges[group] = self._push_to_order(
                charges[group], permutation
            )
        levels = self.varray.levels(page).copy()
        used = self.num_groups * self.group_cells
        levels[:used] = new_charges.reshape(-1)
        return self.varray.program_levels(page, levels)

    def decode(self, page: np.ndarray) -> np.ndarray:
        charges = self._group_charges(page)
        bits = np.zeros((self.num_groups, self.bits_per_group), dtype=np.uint8)
        for group in range(self.num_groups):
            index = index_from_permutation(self._ranks(charges[group]))
            # Indices >= 2^bits cannot be produced by encode (every stored
            # permutation comes from a bits_per_group-bit value).
            for bit in range(self.bits_per_group):
                bits[group, bit] = (index >> bit) & 1
        return bits.reshape(-1)
