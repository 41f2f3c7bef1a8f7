"""ECC-integrated coset codes (paper Section V.B).

The paper's requirement: error protection must be *integrated* with the
coset code — "ensure that cosets consist solely of valid ECC-protected
codewords" — rather than appended as dedicated parity cells, which would
wear out faster than the cells they protect (Schechter et al.).

Construction.  A plain coset code maps a dataword to the *syndrome* of the
stored page.  We restrict the usable syndromes to codewords of an
interleaved SECDED Hamming code: the host dataword is Hamming-encoded,
interleaved, and the result becomes the syndrome handed to the coset
encoder.  Consequences:

* every coset the writer can select consists solely of pages whose
  syndrome is a valid (interleaved) ECC codeword — the integration the
  paper describes;
* the ECC redundancy lives in the syndrome domain, which the coset code
  scrambles uniformly over all v-cells, so there are **no dedicated parity
  cells** and all of the MFC balancing heuristics keep working;
* a single corrupted cell perturbs the decoded syndrome only in a burst of
  at most ``(memory + 1) * (m - 1)`` consecutive bits (the syndrome former
  is a sliding window); block interleaving of depth >= that burst places at
  most one corrupted bit in each Hamming block, so SECDED corrects it.

The storage cost is the Hamming rate on top of the coset rate, exactly the
"larger value of c" cost Section V.B predicts.
"""

from __future__ import annotations

import numpy as np

from repro.coding.coset import ConvolutionalCosetCode
from repro.coding.hamming import HammingSecded
from repro.coding.page_code import PageCode
from repro.errors import ConfigurationError

__all__ = ["EccIntegratedCosetCode", "EccDecodeResult"]


from dataclasses import dataclass


@dataclass(frozen=True)
class EccDecodeResult:
    """Decoded data plus error accounting for one page read."""

    data: np.ndarray
    corrected_bits: int
    detected_uncorrectable: int

    @property
    def clean(self) -> bool:
        return self.corrected_bits == 0 and self.detected_uncorrectable == 0


class EccIntegratedCosetCode(PageCode):
    """A rewriting coset code whose cosets are all ECC-valid.

    Parameters mirror :class:`~repro.coding.coset.ConvolutionalCosetCode`,
    plus ``hamming_r`` selecting the SECDED block size (r=3 gives (8,4),
    r=4 gives (16,11) with lower overhead).
    """

    def __init__(
        self,
        page_bits: int,
        rate_denominator: int = 2,
        constraint_length: int = 4,
        bits_per_cell: int = 1,
        vcell_levels: int = 4,
        hamming_r: int = 3,
    ) -> None:
        self.inner = ConvolutionalCosetCode(
            page_bits=page_bits,
            rate_denominator=rate_denominator,
            constraint_length=constraint_length,
            bits_per_cell=bits_per_cell,
            vcell_levels=vcell_levels,
        )
        self.hamming = HammingSecded(hamming_r)
        self.page_bits = int(page_bits)
        inner_bits = self.inner.dataword_bits
        self.num_blocks = inner_bits // self.hamming.block_bits
        burst = (self.inner.code.memory + 1) * (rate_denominator - 1)
        if self.num_blocks < burst:
            raise ConfigurationError(
                f"page too small for integration: a cell error can smear "
                f"over {burst} syndrome bits but only {self.num_blocks} "
                f"Hamming blocks fit; single-error correction would not be "
                "guaranteed"
            )
        self.dataword_bits = self.num_blocks * self.hamming.data_bits
        self._used_inner_bits = self.num_blocks * self.hamming.block_bits

    # -- the one body of both faces: one page, or (lanes, ...) pages ---------

    def _protect(self, datawords: np.ndarray, batch: bool) -> np.ndarray:
        """Hamming-encode and interleave datawords into inner datawords.

        Bit ``i`` of block ``b`` goes to inner position ``i * num_blocks +
        b``: any run of ``num_blocks`` consecutive inner bits touches each
        block at most once, so a syndrome burst hits each block once.
        """
        data = self._datawords(datawords, batch)
        lead = data.shape[:-1]
        coded = self.hamming.encode_blocks(
            data.reshape(*lead, self.num_blocks, self.hamming.data_bits)
        )
        inner = np.zeros((*lead, self.inner.dataword_bits), dtype=np.uint8)
        inner[..., : self._used_inner_bits] = coded.swapaxes(-1, -2).reshape(*lead, -1)
        return inner

    def _recover(self, inner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deinterleave decoded inner datawords and correct each block:
        ``(data, corrected, uncorrectable)`` with per-block masks."""
        lead = inner.shape[:-1]
        coded = inner[..., : self._used_inner_bits].reshape(
            *lead, self.hamming.block_bits, self.num_blocks
        )
        data, corrected, uncorrectable = self.hamming.decode_blocks(
            coded.swapaxes(-1, -2)
        )
        return data.reshape(*lead, -1), corrected, uncorrectable

    # -- PageCode interface ----------------------------------------------------

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        return self.inner.encode(self._protect(dataword, batch=False), page)

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hamming-protect and coset-encode ``B`` pages in lockstep."""
        return self.inner.encode_batch(self._protect(datawords, batch=True), pages)

    def decode(self, page: np.ndarray) -> np.ndarray:
        """Plain decode (single corrected errors are transparent)."""
        return self.decode_with_report(page).data

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        """Decode ``B`` pages, applying single-error correction per block."""
        data, _, _ = self._recover(self.inner.decode_batch(pages))
        return data

    def decode_with_report(self, page: np.ndarray) -> EccDecodeResult:
        """Decode with full ECC accounting.

        One corrupted v-cell anywhere on the page is corrected; wider
        corruption is reported via ``detected_uncorrectable``.
        """
        data, corrected, uncorrectable = self._recover(self.inner.decode(page))
        return EccDecodeResult(
            data=data,
            corrected_bits=int(corrected.sum()),
            detected_uncorrectable=int(uncorrectable.sum()),
        )

    def check(self, page: np.ndarray) -> bool:
        """True when the page reads back with no corrections needed."""
        return self.decode_with_report(page).clean

    @property
    def rate(self) -> float:
        return self.dataword_bits / self.page_bits

    @property
    def ecc_overhead(self) -> float:
        """Fraction of the coset code's payload spent on error correction."""
        return 1 - self.hamming.rate
