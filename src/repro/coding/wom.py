"""The paper's WOM code on 4-level v-cells (Section VI, Fig. 9).

Each v-cell (three physical bits) stores two data bits using the classic
Rivest-Shamir write-twice construction: every 2-bit value has a low-weight
"first generation" pattern and its complement as the "second generation"
pattern.  Values map to patterns as::

    value 00: 000 / 111      value 01: 001 / 110
    value 10: 010 / 101      value 11: 100 / 011

Any value can be written twice into an erased cell (the two generations);
later writes succeed only when a representing pattern happens to be a
superset of the current bits — Fig. 9's example where one lucky cell takes
four updates.  At page granularity the guaranteed number of writes is 2,
which is the paper's measured WOM lifetime gain.

The overall implementation rate is 2 data bits / 3 physical bits = 2/3.
"""

from __future__ import annotations

import numpy as np

from repro.coding.bitops import pack_values_axis, unpack_values_axis
from repro.coding.page_code import PageCode
from repro.errors import CodingError, UnwritableError
from repro.vcell import VCellArray, VCellSpec

__all__ = ["WomVCellCode", "WOM_VALUE_OF_PATTERN", "WOM_NEXT_PATTERN"]

_FIRST_GENERATION = (0b000, 0b001, 0b010, 0b100)  # value -> low-weight pattern


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    value_of_pattern = np.empty(8, dtype=np.int8)
    for value, pattern in enumerate(_FIRST_GENERATION):
        value_of_pattern[pattern] = value
        value_of_pattern[pattern ^ 0b111] = value
    next_pattern = np.full((8, 4), -1, dtype=np.int8)
    for pattern in range(8):
        for value in range(4):
            if value_of_pattern[pattern] == value:
                next_pattern[pattern, value] = pattern  # value unchanged
                continue
            candidates = [
                target
                for target in range(8)
                if value_of_pattern[target] == value
                and (pattern & target) == pattern
                and target != pattern
            ]
            if candidates:
                # Prefer the lowest-weight reachable pattern to postpone
                # saturation.
                next_pattern[pattern, value] = min(
                    candidates, key=lambda t: (bin(t).count("1"), t)
                )
    return value_of_pattern, next_pattern


#: ``WOM_VALUE_OF_PATTERN[pattern]``: the value a 3-bit pattern stores.
#: ``WOM_NEXT_PATTERN[pattern, value]``: the pattern that writes ``value``
#: over ``pattern``, -1 where none is reachable; int8, and
#: ``take`` reads it flat, at ``pattern << 2 | value``.
WOM_VALUE_OF_PATTERN, WOM_NEXT_PATTERN = _build_tables()


class WomVCellCode(PageCode):
    """Page-level WOM code: 2 data bits per 4-level v-cell."""

    BITS_PER_VALUE = 2

    def __init__(self, page_bits: int) -> None:
        self.varray = VCellArray(VCellSpec(levels=4), page_bits)
        self.page_bits = int(page_bits)
        self.num_cells = self.varray.num_cells
        self.dataword_bits = self.num_cells * self.BITS_PER_VALUE

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        return self._encode(dataword, page, batch=False)[0]

    def decode(self, page: np.ndarray) -> np.ndarray:
        return self._decode(page, batch=False)

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Native batched WOM write: all lanes advance in one table gather.

        Lanes with an unreachable cell pattern keep their previous bits and
        come back False in the ``writable`` mask.
        """
        return self._encode(datawords, pages, batch=True)

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        return self._decode(pages, batch=True)

    # -- the one body of both faces: one page, or (lanes, page_bits) pages ----

    def _patterns(self, pages: np.ndarray, batch: bool) -> tuple[np.ndarray, np.ndarray]:
        """The uint8 pages and their per-cell 3-bit patterns (LSB = first bit
        of the cell's group)."""
        bits = np.asarray(pages, dtype=np.uint8)
        if bits.ndim != 1 + batch or bits.shape[-1] != self.page_bits:
            shape = f"(lanes, {self.page_bits}) pages, got shape" if batch else (
                f"a page of {self.page_bits} bits, got"
            )
            raise CodingError(f"expected {shape} {bits.shape}")
        return bits, pack_values_axis(bits[..., : self.varray.used_bits], 3)

    def _encode(
        self, datawords: np.ndarray, pages: np.ndarray, batch: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(new_pages, writable)``; one page that cannot take the write
        raises ``UnwritableError`` before a page is built for it."""
        data = self._datawords(datawords, batch)
        bits, patterns = self._patterns(pages, batch)
        targets = WOM_NEXT_PATTERN.take(
            patterns << 2 | pack_values_axis(data, self.BITS_PER_VALUE)
        )
        writable = np.ones(len(targets), dtype=bool) if batch else True
        stuck = targets < 0
        if stuck.any():  # one reduction: per lane only when a lane is stuck
            if not batch:
                raise UnwritableError(
                    "a v-cell has no reachable pattern for its new value; "
                    "erase required"
                )
            writable = ~stuck.any(axis=1)
            # An unwritable lane keeps its bits.
            targets = np.where(writable[:, None], targets, patterns)
        new_pages = bits.copy()
        new_pages[..., : self.varray.used_bits] = unpack_values_axis(targets, 3)
        return new_pages, writable

    def _decode(self, pages: np.ndarray, batch: bool) -> np.ndarray:
        _, patterns = self._patterns(pages, batch)
        values = WOM_VALUE_OF_PATTERN.take(patterns)
        return unpack_values_axis(values, self.BITS_PER_VALUE)

    def updates_guaranteed(self) -> int:
        """Writes always possible after an erase (the WOM guarantee)."""
        return 2
