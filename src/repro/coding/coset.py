"""The complete Methuselah rewriting coset code over one page.

Composition (paper Sections III-V):

1. the page's bits are viewed as 4-level v-cells (:mod:`repro.vcell`),
2. each v-cell stores 1 or 2 codeword bits via a
   :class:`~repro.coding.cost.CellCodebook` (Fig. 10),
3. the dataword is the syndrome of the stored codeword under a rate ``1/m``
   convolutional code; writing picks the minimum-wear coset member with the
   Viterbi search (Section V.A).
"""

from __future__ import annotations

import numpy as np

from repro.coding.convolutional import ConvolutionalCode
from repro.coding.cost import CellCodebook, make_codebook
from repro.coding.kernels import ParameterBlock
from repro.coding.page_code import PageCode, require_bits
from repro.coding.registry import get_code
from repro.coding.syndrome import SyndromeFormer
from repro.coding.viterbi import CosetViterbi
from repro.errors import CodingError, ConfigurationError, UnwritableError
from repro.vcell import VCellArray, VCellSpec

__all__ = ["ConvolutionalCosetCode"]


class ConvolutionalCosetCode(PageCode):
    """A rewriting coset code bound to a concrete page size.

    Parameters
    ----------
    code:
        The rate ``1/m`` convolutional code generating the cosets, or None
        to pull one from the registry via ``rate_denominator``.
    page_bits:
        Raw physical bits per page (the paper's 4 KB page is 32768).
    bits_per_cell:
        1 (waterfall mapping) or 2 (direct mapping) — Fig. 10.
    vcell_levels:
        Levels of the virtual cells (the paper uses 4 throughout).
    codebook:
        Optional custom codebook (e.g. ablation metrics); overrides
        ``bits_per_cell``/``vcell_levels`` defaults.
    """

    def __init__(
        self,
        page_bits: int,
        code: ConvolutionalCode | None = None,
        *,
        rate_denominator: int = 2,
        constraint_length: int | None = None,
        bits_per_cell: int = 1,
        vcell_levels: int = 4,
        codebook: CellCodebook | None = None,
    ) -> None:
        if code is None:
            if constraint_length is None:
                code = get_code(rate_denominator)
            else:
                code = get_code(rate_denominator, constraint_length)
        self.code = code
        self.codebook = codebook or make_codebook(bits_per_cell, vcell_levels)
        if self.codebook.num_levels != vcell_levels and codebook is None:
            raise ConfigurationError("codebook level count mismatch")
        self.page_bits = int(page_bits)
        m = code.num_outputs
        if m % self.codebook.bits_per_cell != 0:
            raise ConfigurationError(
                f"rate-1/{m} outputs do not divide into "
                f"{self.codebook.bits_per_cell}-bit symbols"
            )
        # One backend serves the whole write: the search's inputs (the coset
        # chunks and the page's levels), the search and the program.
        self.viterbi = CosetViterbi(code.build_trellis(), self.codebook)
        self.varray = VCellArray(
            VCellSpec(self.codebook.num_levels), page_bits, self.viterbi.backend.levels
        )
        self.former = SyndromeFormer(code)
        self.cells_per_step = m // self.codebook.bits_per_cell
        self.steps = self.varray.num_cells // self.cells_per_step
        if self.steps == 0:
            raise ConfigurationError(
                f"page of {page_bits} bits too small for one trellis step"
            )
        self.used_cells = self.steps * self.cells_per_step
        # The Viterbi search leaves the initial trellis state free, which
        # perturbs the syndrome of the first 2*memory steps; those steps
        # carry no data ("guard" region).  This is the small rate cost of
        # extra states the paper mentions in Section III.
        self.guard_steps = 2 * code.memory
        if self.steps <= self.guard_steps:
            raise ConfigurationError(
                f"page too small: {self.steps} trellis steps do not exceed "
                f"the {self.guard_steps}-step guard region"
            )
        self.dataword_bits = (self.steps - self.guard_steps) * (m - 1)
        # The native kernels' page block, bound once as the searcher binds
        # its own.  A generator is one word, bit k its D**k coefficient (the
        # kernels refuse a code of more than 64 taps).
        self._block = ParameterBlock(
            "page", page_bits=self.page_bits, num_cells=self.varray.num_cells,
            width=self.varray.bits_per_cell, steps=self.steps,
            per_step=self.cells_per_step, bpc=self.codebook.bits_per_cell,
            guard=self.guard_steps, taps=code.constraint_length,
            generators=[
                sum(1 << int(k) for k in np.flatnonzero(row) if k < 64)
                for row in code.coefficient_matrix
            ],
            target_of=self.codebook.target_table, read_of=self.codebook.read_table,
        )
        self._last_cost = float("nan")
        self._last_costs = np.full(0, np.nan)
        self._last_levels = np.zeros((0, self.varray.num_cells), dtype=np.int64)

    @property
    def coset_rate(self) -> float:
        """Rate of the coset code itself: ``(m-1)/m``."""
        m = self.code.num_outputs
        return (m - 1) / m

    @property
    def ideal_rate(self) -> float:
        """Implementation rate ignoring page-boundary rounding.

        ``coset_rate * bits_per_cell / (vcell_levels - 1)`` — e.g. 1/6 for
        MFC-1/2-1BPC on 4-level v-cells.
        """
        return (
            self.coset_rate
            * self.codebook.bits_per_cell
            / (self.codebook.num_levels - 1)
        )

    @property
    def last_write_cost(self) -> float:
        """Metric cost of the most recent successful encode."""
        return self._last_cost

    @property
    def last_write_costs(self) -> np.ndarray:
        """Per-lane Viterbi costs of the most recent batched encode.

        Unwritable lanes hold ``inf``.
        """
        return self._last_costs.copy()

    @property
    def last_write_levels(self) -> np.ndarray:
        """``(B, num_cells)`` v-cell levels of the pages the most recent
        batched encode returned, as its page program set them.

        Unwritable lanes hold their pages' levels.  A read-only view: the
        next encode makes a new array, so this one never changes.
        """
        levels = self._last_levels.view()
        levels.flags.writeable = False
        return levels

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        """Encode one page — a ``B = 1`` wrapper over :meth:`encode_batch`.

        The shapes and bytes are checked once, by the batch face and the
        search inputs as they read them; only a refused write is checked
        again here, for the message that names one page's bit without a
        lane."""
        data, page = np.asarray(dataword), np.asarray(page)
        try:
            new_pages, writable = self.encode_batch(data[None], page[None])
        except CodingError:
            data = self._datawords(data, batch=False, checked_later=True)
            self._pages(page, batch=False)
            require_bits(data, "dataword")
            raise
        if not writable[0]:
            raise UnwritableError(
                "no codeword in the coset is writable onto the current page"
            )
        self._last_cost = float(self._last_costs[0])
        return new_pages[0]

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``B`` independent pages in lockstep.

        ``datawords`` is ``(B, dataword_bits)``, ``pages`` is
        ``(B, page_bits)``.  Returns ``(new_pages, writable)``; lanes whose
        coset has no writable member keep their previous bits and come back
        False in the mask.  Three calls of the backend: the search's inputs
        (the coset chunks and the pages' levels), the search, the program.
        """
        # The search inputs check each uint8 byte as they read it.
        data = self._datawords(datawords, batch=True, checked_later=True)
        pages = self._pages(pages, batch=True)
        lanes = len(data)
        if len(pages) != lanes:
            raise CodingError(f"{lanes} datawords for {len(pages)} pages")
        backend = self.viterbi.backend
        chunks, all_levels = backend.search_inputs(self, data, pages)
        step_levels = all_levels[:, : self.used_cells].reshape(
            lanes, self.steps, self.cells_per_step
        )
        result = self.viterbi.search_batch(chunks, step_levels)
        self._last_costs = result.total_costs
        # The program may write the new levels over all_levels, which
        # result.step_levels views: nothing reads the result after it.
        new_pages, self._last_levels = backend.program(
            self, pages, all_levels, result
        )
        return new_pages, result.writable

    def decode(self, page: np.ndarray) -> np.ndarray:
        """Decode one page — a ``B = 1`` wrapper over :meth:`decode_batch`."""
        return self.decode_batch(np.asarray(page, dtype=np.uint8)[None, :])[0]

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        """Decode ``B`` pages to their ``(B, dataword_bits)`` datawords: one
        call of the backend's ``decode``, the syndrome past the guard steps."""
        return self.viterbi.backend.decode(self, np.asarray(pages, dtype=np.uint8))

    def __str__(self) -> str:
        return (
            f"coset code [{self.code}] x {self.codebook.name} on "
            f"{self.varray.num_cells} v-cells ({self.page_bits}-bit page), "
            f"dataword {self.dataword_bits} bits"
        )
