"""The baseline: uncoded flash, one program per erase (paper Section VII)."""

from __future__ import annotations

import numpy as np

from repro.coding.page_code import PageCode
from repro.core.scheme import PageCodeScheme
from repro.errors import CodingError, UnwritableError

__all__ = ["IdentityCode", "UncodedScheme"]


class IdentityCode(PageCode):
    """Datawords stored directly as page bits, rate 1.

    Program-without-erase can only set bits, so a rewrite succeeds only when
    the new dataword covers every programmed bit — with random data that
    essentially never happens on realistic page sizes, giving the
    baseline's lifetime gain of exactly 1.
    """

    def __init__(self, page_bits: int) -> None:
        self.page_bits = self.dataword_bits = int(page_bits)

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        new_pages, writable = self._encode(dataword, page, batch=False)
        if not writable[0]:
            raise UnwritableError(
                "uncoded rewrite would clear programmed bits; erase required"
            )
        return new_pages[0]

    def decode(self, page: np.ndarray) -> np.ndarray:
        return self._pages(page, batch=False).copy()

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._encode(datawords, pages, batch=True)

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        return self._pages(pages, batch=True).copy()

    def _encode(
        self, datawords: np.ndarray, pages: np.ndarray, batch: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one body of both faces, over ``(lanes, page_bits)`` pages: a
        lane keeps its page where a programmed bit is 0 in its dataword."""
        data = self._datawords(datawords, batch).reshape(-1, self.page_bits)
        bits = self._pages(pages, batch).reshape(-1, self.page_bits)
        if len(data) != len(bits):
            raise CodingError(f"{len(data)} datawords for {len(bits)} pages")
        writable = ~(bits > data).any(axis=1)
        new_pages = data.copy()
        new_pages[~writable] = bits[~writable]
        return new_pages, writable


class UncodedScheme(PageCodeScheme):
    """Uncoded flash: the identity code on one page."""

    def __init__(self, page_bits: int) -> None:
        super().__init__("Uncoded", IdentityCode(page_bits))

    # Not inherited: benchmarks/e2e/tracer.py wraps this class's own write.
    write = PageCodeScheme.write
