"""Simple redundancy: K pages of raw flash per logical page (Section VII).

Writes use the raw pages one after another, each programmed once; after K
writes all copies are dirty and an erase is required.  Lifetime gain K at
rate 1/K — aggregate gain exactly 1, the paper's "no better than baseline"
reference point.
"""

from __future__ import annotations

import numpy as np

from repro.coding.page_code import PageCode
from repro.core.scheme import PageCodeScheme
from repro.errors import CodingError, ConfigurationError, UnwritableError

__all__ = ["ReplicationCode", "RedundancyScheme"]


class ReplicationCode(PageCode):
    """K copies of an ``n``-bit dataword side by side on a ``K·n``-bit page.

    The copy in use is the last copy that holds a set bit, and a write
    programs the copy after it; once the last copy is in use the page needs
    an erase.  An all-zero dataword cannot be told apart from an unused
    copy, so onto an erased page it programs nothing and reads back as
    zeros, and onto a page with a copy in use it needs an erase (as it
    does on an uncoded page).  With random data that happens with
    probability ``2^-n`` per write.
    """

    def __init__(self, dataword_bits: int, copies: int) -> None:
        if copies < 1:
            raise ConfigurationError("need at least one copy")
        self.copies = copies
        self.dataword_bits = int(dataword_bits)
        self.page_bits = self.dataword_bits * copies

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        new_pages, writable = self._encode(dataword, page, batch=False)
        if not writable[0]:
            raise UnwritableError(
                f"no copy of {self.copies} can take the dataword (all are used, "
                "or it is zeros onto a used one); erase required"
            )
        return new_pages[0]

    def decode(self, page: np.ndarray) -> np.ndarray:
        return self.decode_batch(self._pages(page, batch=False)[None])[0]

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._encode(datawords, pages, batch=True)

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        pages = self._pages(pages, batch=True)
        data = np.empty((len(pages), self.dataword_bits), dtype=np.uint8)
        for lane, next_copy in enumerate(self._next_copies(pages)):
            in_use = max(next_copy - 1, 0)  # copy 0 if erased
            data[lane] = pages[lane].reshape(self.copies, -1)[in_use]
        return data

    # -- the one body of both faces: (lanes, page_bits) pages ---------------

    def _next_copies(self, pages: np.ndarray) -> list[int]:
        """Per lane, the copy after the last one holding a set bit: the copies
        are scanned from the last one back, up to the first that holds one."""
        n = self.dataword_bits
        next_copies = []
        for row in pages.view(bool):
            next_copy = self.copies
            while next_copy and not _holds_a_bit(row[(next_copy - 1) * n:next_copy * n]):
                next_copy -= 1
            next_copies.append(next_copy)
        return next_copies

    def _encode(
        self, datawords: np.ndarray, pages: np.ndarray, batch: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(new_pages, writable)`` as ``(lanes, page_bits)`` and ``(lanes,)``.

        The pages are scanned for the copies in use; only a writable lane's
        next copy is then written, one slice per lane."""
        data = self._datawords(datawords, batch).reshape(-1, self.dataword_bits)
        bits = self._pages(pages, batch).reshape(-1, self.page_bits)
        if len(data) != len(bits):
            raise CodingError(f"{len(data)} datawords for {len(bits)} pages")
        n = self.dataword_bits
        new_pages = bits.copy()
        writable = np.zeros(len(bits), dtype=bool)
        for lane, next_copy in enumerate(self._next_copies(bits)):
            # On an erased page a zero dataword programs nothing; onto a used
            # one it would read back as the copy before it.
            if next_copy < self.copies and (
                next_copy == 0 or _holds_a_bit(data[lane].view(bool))
            ):
                new_pages[lane, next_copy * n:(next_copy + 1) * n] = data[lane]
                writable[lane] = True
        return new_pages, writable


def _holds_a_bit(row: np.ndarray) -> bool:
    """Whether a bool view of bytes has a nonzero one: ``argmax`` stops at
    the first, where ``any`` and ``max`` read the whole row."""
    return bool(row[row.argmax()])


class RedundancyScheme(PageCodeScheme):
    """Rate ``1/K`` replication over ``K`` physical pages."""

    def __init__(self, page_bits: int, copies: int = 2) -> None:
        # page_bits is one copy's size: the dataword's, not the code page's.
        super().__init__(
            f"Redundancy-1/{copies}", ReplicationCode(page_bits, copies)
        )

    # Not inherited: benchmarks/e2e/tracer.py wraps this class's own write.
    write = PageCodeScheme.write
