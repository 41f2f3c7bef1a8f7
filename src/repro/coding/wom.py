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

Both directions are one table walk per cell, run by the kernel backend the
code resolves when it is built (:mod:`repro.coding.kernels`): one C call
per write or read, or its numpy twin.  The scalar and batch faces share
one body, and a byte that is not a bit, in a page or a dataword, is a
:class:`~repro.errors.CodingError` under either backend.
"""

from __future__ import annotations

import numpy as np

from repro.coding.kernels import ParameterBlock, resolve_backend
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
    """Page-level WOM code: 2 data bits per 4-level v-cell.

    ``backend`` names the kernel backend, as for
    :class:`~repro.coding.viterbi.CosetViterbi`: the name, else
    ``REPRO_VITERBI_BACKEND``, else ``"auto"``.  It never changes a page.
    """

    BITS_PER_VALUE = 2

    def __init__(self, page_bits: int, backend: str | None = None) -> None:
        self.backend = resolve_backend(backend)
        self.varray = VCellArray(VCellSpec(levels=4), page_bits)
        self.page_bits = int(page_bits)
        self.num_cells = self.varray.num_cells
        self.dataword_bits = self.num_cells * self.BITS_PER_VALUE
        #: The flat next-pattern table and the value table, bound once: the
        #: numpy twins read them from :attr:`ParameterBlock.tables`.
        self._block = ParameterBlock(
            "wom", page_bits=self.page_bits, cells=self.num_cells,
            next=WOM_NEXT_PATTERN.reshape(-1), value_of=WOM_VALUE_OF_PATTERN,
        )

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        return self._encode(dataword, page, batch=False)[0]

    def decode(self, page: np.ndarray) -> np.ndarray:
        return self.backend.wom_decode(self, self._pages(page, batch=False))

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Native batched WOM write: all lanes advance in one kernel call.

        Lanes with an unreachable cell pattern keep their previous bits and
        come back False in the ``writable`` mask.
        """
        return self._encode(datawords, pages, batch=True)

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        return self.backend.wom_decode(self, self._pages(pages, batch=True))

    # -- the one body of both faces: one page, or (lanes, page_bits) pages ----

    def _encode(
        self, datawords: np.ndarray, pages: np.ndarray, batch: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(new_pages, writable)``; one page that cannot take the write
        raises ``UnwritableError``."""
        # The backend checks each uint8 byte as it reads it.
        data = self._datawords(datawords, batch, checked_later=True)
        bits = self._pages(pages, batch)
        if batch and len(data) != len(bits):
            raise CodingError(f"{len(data)} datawords for {len(bits)} pages")
        new_pages, writable = self.backend.wom_encode(self, data, bits)
        if not (batch or writable):
            raise UnwritableError(
                "a v-cell has no reachable pattern for its new value; "
                "erase required"
            )
        return new_pages, writable

    def updates_guaranteed(self) -> int:
        """Writes always possible after an erase (the WOM guarantee)."""
        return 2
