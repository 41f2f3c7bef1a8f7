"""Syndrome former and coset representatives for rate ``1/m`` coset codes.

For a rate ``1/m`` code with generators ``g1..gm`` the parity-check relations

    s_j(D) = g_{j+1}(D) * y_1(D) + g_1(D) * y_{j+1}(D),   j = 1 .. m-1

vanish exactly on codewords, so the length-``(m-1)N`` syndrome sequence of a
stored page identifies the dataword (the coset index).  Writing uses the
canonical coset representative with ``t_1 = 0`` and
``t_{j+1}(D) = s_j(D) / g_1(D)`` — the division is causal because ``g_1`` has
a nonzero constant term.  :meth:`SyndromeFormer.representative_batch` runs
it as :func:`~repro.coding.bitops.gf2_divide_causal`, the product
``s_j * g_1(D) * g_1(D**2) * g_1(D**4) * ...``, a few slice XORs per factor
over all lanes and streams at once: the numpy backend's half of a write's
``search_inputs``.  The native kernel runs the same division as the shift
register ``t[n] = s[n] ^ t[n - tap] ^ ...`` in C, inside that one call.

Both directions are exact for *unterminated* trellis paths: the syndrome at
step ``t`` only involves stored bits at steps ``<= t``, so truncation at the
page boundary never corrupts the mapping (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.coding.bitops import gf2_convolve_axis, gf2_divide_causal
from repro.coding.convolutional import ConvolutionalCode
from repro.errors import CodingError

__all__ = ["SyndromeFormer"]


class SyndromeFormer:
    """Maps stored codewords to datawords and datawords to coset representatives.

    Both directions carry an explicit batch axis (``syndrome_batch`` /
    ``representative_batch``); the scalar methods are their ``B = 1``
    wrappers.  A page write's search inputs and a page read are each one
    call of the kernel backend: ``representative_batch`` and
    ``syndrome_batch`` are stages of their numpy twins, and the native
    kernel does the same arithmetic in C.
    """

    def __init__(self, code: ConvolutionalCode) -> None:
        self.code = code
        self._coeffs = code.coefficient_matrix.astype(np.int64)
        # A step's m-1 streams lie interleaved, which makes them one stream
        # divided by g1(D**(m-1)): its powers >= 1 are the feedback taps.
        powers = np.flatnonzero(self._coeffs[0, 1:]) + 1
        self._feedback_taps = powers * (code.num_outputs - 1)

    @property
    def syndrome_bits_per_step(self) -> int:
        """Dataword bits carried per trellis step (``m - 1``)."""
        return self.code.num_outputs - 1

    def syndrome(self, codeword_streams: np.ndarray) -> np.ndarray:
        """Syndrome of stored streams.

        Parameters
        ----------
        codeword_streams:
            ``(steps, m)`` array, column ``j`` is stream ``y_{j+1}``.

        Returns
        -------
        ``(steps, m-1)`` array of syndrome bits; column ``j`` is ``s_{j+1}``.
        """
        streams = np.asarray(codeword_streams, dtype=np.uint8)
        if streams.ndim != 2 or streams.shape[1] != self.code.num_outputs:
            raise CodingError(
                f"expected (steps, {self.code.num_outputs}) streams, got "
                f"shape {streams.shape}"
            )
        return self.syndrome_batch(streams[None, :, :])[0]

    def syndrome_batch(self, codeword_streams: np.ndarray) -> np.ndarray:
        """Syndromes of ``B`` pages of stored streams at once.

        ``codeword_streams`` is ``(B, steps, m)``; the result is
        ``(B, steps, m-1)``.
        """
        streams = np.asarray(codeword_streams, dtype=np.uint8)
        if streams.ndim != 3 or streams.shape[2] != self.code.num_outputs:
            raise CodingError(
                f"expected (lanes, steps, {self.code.num_outputs}) streams, "
                f"got shape {streams.shape}"
            )
        lanes, steps, _ = streams.shape
        result = np.empty(
            (lanes, steps, self.syndrome_bits_per_step), dtype=np.uint8
        )
        y1 = streams[:, :, 0]
        for j in range(self.syndrome_bits_per_step):
            term_a = gf2_convolve_axis(y1, self._coeffs[j + 1], steps)
            term_b = gf2_convolve_axis(streams[:, :, j + 1], self._coeffs[0], steps)
            result[:, :, j] = term_a ^ term_b
        return result

    def representative(self, syndrome: np.ndarray) -> np.ndarray:
        """Canonical coset member ``t`` with the given syndrome.

        Parameters
        ----------
        syndrome:
            ``(steps, m-1)`` dataword bits arranged per step.

        Returns
        -------
        ``(steps, m)`` stream array with ``t_1 = 0`` and
        ``t_{j+1} = s_j / g_1`` (causal feedback division).
        """
        s = np.asarray(syndrome, dtype=np.uint8)
        if s.ndim != 2 or s.shape[1] != self.syndrome_bits_per_step:
            raise CodingError(
                f"expected (steps, {self.syndrome_bits_per_step}) syndrome, "
                f"got shape {s.shape}"
            )
        return self.representative_batch(s[None, :, :])[0]

    def representative_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Canonical coset members for ``B`` syndromes at once.

        ``syndromes`` is ``(B, steps, m-1)``; the result is
        ``(B, steps, m)``.  The causal division by ``g1`` runs all lanes and
        all streams in lockstep (no Python loop over trellis steps).
        """
        s = np.asarray(syndromes, dtype=np.uint8)
        if s.ndim != 3 or s.shape[2] != self.syndrome_bits_per_step:
            raise CodingError(
                f"expected (lanes, steps, {self.syndrome_bits_per_step}) "
                f"syndromes, got shape {s.shape}"
            )
        lanes, steps, width = s.shape
        rep = np.zeros((lanes, steps, self.code.num_outputs), dtype=np.uint8)
        # Dividing the streams as they lie keeps every access contiguous.
        streams = gf2_divide_causal(
            s.reshape(lanes, steps * width), self._feedback_taps
        )
        rep[:, :, 1:] = streams.reshape(s.shape)
        return rep
