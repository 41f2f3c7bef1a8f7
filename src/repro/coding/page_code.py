"""Common interface for page-level rewriting codes.

A *page code* turns a fixed-size dataword into the next full contents of one
physical page, given the page's current contents, such that the update obeys
the flash interface (bits only set).  When no legal update exists the code
raises :class:`~repro.errors.UnwritableError` and the page must be erased.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CodingError, UnwritableError

if TYPE_CHECKING:
    from repro.vcell import VCellArray

__all__ = ["PageCode", "require_bits"]


def require_bits(bits: np.ndarray, what: str) -> np.ndarray:
    """``bits`` as uint8, once every entry is checked to be 0 or 1.

    Checked before narrowing: as uint8, 256 is a 0, 257 a 1 and 0.9 a 0.
    The :class:`~repro.errors.CodingError` names the first entry that is
    not a bit, by lane when ``bits`` has one.
    """
    if bits.dtype == np.uint8 and bits.max(initial=0) <= 1:
        return bits  # the common case, in one pass with no mask
    bad = bits > 1 if bits.dtype == np.uint8 else (bits != 0) & (bits != 1)
    if bad.any():
        *lane, bit = np.unravel_index(int(np.argmax(bad)), bad.shape)
        where = f"lane {lane[0]}, bit {bit}" if lane else f"bit {bit}"
        raise CodingError(f"{what} {where}: {bits[(*lane, bit)]} is not a bit")
    return bits.astype(np.uint8, copy=False)


class PageCode(abc.ABC):
    """Abstract rewriting code over one page of bits."""

    #: Number of physical bits in the page this code was sized for.
    page_bits: int
    #: Dataword size in bits accepted by :meth:`encode`.
    dataword_bits: int
    #: The v-cells the page is read as; None when the code is not cell-based.
    varray: VCellArray | None = None
    #: ``(lanes, cells)`` v-cell levels the most recent encode's page program
    #: set, one row per lane; None when the code does not report them.
    last_write_levels: np.ndarray | None = None

    @property
    def rate(self) -> float:
        """Host-visible bits per raw page bit actually achieved."""
        return self.dataword_bits / self.page_bits

    def _datawords(
        self, datawords: np.ndarray, batch: bool, checked_later: bool = False
    ) -> np.ndarray:
        """One dataword (``batch`` False) or ``(lanes, dataword_bits)`` of
        them, as uint8 holding only bits.  ``checked_later`` passes a uint8
        array through unchecked, for a caller that hands it to a backend
        which checks every byte as it reads it."""
        data = np.asarray(datawords)
        if data.ndim != 1 + batch or data.shape[-1] != self.dataword_bits:
            shape = f"datawords must be (lanes, {self.dataword_bits})" if batch else (
                f"dataword must be {self.dataword_bits}"
            )
            raise CodingError(f"{shape} bits, got {data.shape}")
        if checked_later and data.dtype == np.uint8:
            return data
        return require_bits(data, "dataword")

    def _pages(self, pages: np.ndarray, batch: bool) -> np.ndarray:
        """One page (``batch`` False) or ``(lanes, page_bits)`` of them, as
        uint8; ones that are not uint8 already must hold only bits.  A uint8
        page is taken as a state the code wrote."""
        bits = np.asarray(pages)
        if bits.ndim != 1 + batch or bits.shape[-1] != self.page_bits:
            shape = f"(lanes, {self.page_bits}) pages, got shape" if batch else (
                f"a page of {self.page_bits} bits, got"
            )
            raise CodingError(f"expected {shape} {bits.shape}")
        return bits if bits.dtype == np.uint8 else require_bits(bits, "page")

    @abc.abstractmethod
    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        """Return the page's next bits storing ``dataword``.

        Must be bit-monotone w.r.t. ``page`` (only sets bits).  Raises
        :class:`~repro.errors.UnwritableError` when the dataword cannot be
        stored without an erase.
        """

    @abc.abstractmethod
    def decode(self, page: np.ndarray) -> np.ndarray:
        """Recover the most recently stored dataword from page bits."""

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``B`` independent pages; return ``(new_pages, writable)``.

        ``datawords`` is ``(B, dataword_bits)`` and ``pages`` is
        ``(B, page_bits)``.  Lanes whose page cannot absorb the update keep
        their previous bits and are reported as False in the ``writable``
        mask — no exception, so one saturated page never aborts a batch.

        This default loops over :meth:`encode`; array-first codes override
        it with a natively vectorized implementation.
        """
        pages = np.asarray(pages, dtype=np.uint8)
        datawords = np.asarray(datawords)  # encode checks each before narrowing
        if len(datawords) != len(pages):
            raise CodingError(f"{len(datawords)} datawords for {len(pages)} pages")
        new_pages = pages.copy()
        writable = np.ones(len(pages), dtype=bool)
        for lane in range(len(pages)):
            try:
                new_pages[lane] = self.encode(datawords[lane], pages[lane])
            except UnwritableError:
                writable[lane] = False
        return new_pages, writable

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        """Decode ``B`` pages to ``(B, dataword_bits)`` datawords.

        This default loops over :meth:`decode`; array-first codes override
        it.
        """
        pages = np.asarray(pages, dtype=np.uint8)
        return np.stack([self.decode(page) for page in pages])
