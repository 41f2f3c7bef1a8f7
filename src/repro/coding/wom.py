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

from repro.coding.bitops import pack_values, pack_values_axis, unpack_values, unpack_values_axis
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

    def _patterns(self, page: np.ndarray) -> np.ndarray:
        """Per-cell 3-bit patterns (LSB = first bit of the cell's group)."""
        bits = np.asarray(page, dtype=np.uint8)
        if bits.shape != (self.page_bits,):
            raise CodingError(
                f"expected a page of {self.page_bits} bits, got {bits.shape}"
            )
        return pack_values(bits[: self.varray.used_bits], 3)

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        data = np.asarray(dataword, dtype=np.uint8)
        if data.shape != (self.dataword_bits,):
            raise CodingError(
                f"dataword must be {self.dataword_bits} bits, got {data.shape}"
            )
        values = pack_values(data, self.BITS_PER_VALUE)
        patterns = self._patterns(page)
        targets = WOM_NEXT_PATTERN.take(patterns << 2 | values)
        if (targets < 0).any():
            raise UnwritableError(
                "a v-cell has no reachable pattern for its new value; "
                "erase required"
            )
        new_page = np.asarray(page, dtype=np.uint8).copy()
        new_page[: self.varray.used_bits] = unpack_values(targets, 3)
        return new_page

    def decode(self, page: np.ndarray) -> np.ndarray:
        values = WOM_VALUE_OF_PATTERN.take(self._patterns(page))
        return unpack_values(values, self.BITS_PER_VALUE)

    # -- batched interface -----------------------------------------------------

    def _patterns_batch(self, pages: np.ndarray) -> np.ndarray:
        bits = np.asarray(pages, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.page_bits:
            raise CodingError(
                f"expected (lanes, {self.page_bits}) pages, got shape "
                f"{bits.shape}"
            )
        return pack_values_axis(bits[:, : self.varray.used_bits], 3)

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Native batched WOM write: all lanes advance in one table gather.

        Lanes with an unreachable cell pattern keep their previous bits and
        come back False in the ``writable`` mask.
        """
        data = np.asarray(datawords, dtype=np.uint8)
        if data.ndim != 2 or data.shape[1] != self.dataword_bits:
            raise CodingError(
                f"datawords must be (lanes, {self.dataword_bits}) bits, "
                f"got {data.shape}"
            )
        values = pack_values_axis(data, self.BITS_PER_VALUE)
        patterns = self._patterns_batch(pages)
        targets = WOM_NEXT_PATTERN.take(patterns << 2 | values)
        writable = ~(targets < 0).any(axis=1)
        new_pages = np.asarray(pages, dtype=np.uint8).copy()
        safe_targets = np.where(writable[:, None], targets, patterns)
        new_pages[:, : self.varray.used_bits] = unpack_values_axis(safe_targets, 3)
        return new_pages, writable

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        values = WOM_VALUE_OF_PATTERN.take(self._patterns_batch(pages))
        return unpack_values_axis(values, self.BITS_PER_VALUE)

    def updates_guaranteed(self) -> int:
        """Writes always possible after an erase (the WOM guarantee)."""
        return 2
