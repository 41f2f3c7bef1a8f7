"""The rewriting-scheme interface used by every evaluation in the paper.

Every scheme, the two baselines included, is a :class:`PageCodeScheme`: a
:class:`~repro.coding.page_code.PageCode` with a name.  It exposes two
faces of the same contract: the scalar methods (:meth:`~PageCodeScheme.write`
/ :meth:`~PageCodeScheme.read`) operate on one page, and the batched methods
(:meth:`~PageCodeScheme.write_batch` / :meth:`~PageCodeScheme.read_batch`)
run ``B`` independent pages, one ``(lanes, raw_bits)`` array, in lockstep.
Batched writes never raise :class:`~repro.errors.UnwritableError` —
exhausted lanes come back unchanged with a False entry in the returned mask.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.coding.page_code import PageCode

__all__ = ["PageCodeScheme"]


class PageCodeScheme:
    """A lifetime-extension scheme over one page of raw flash.

    A scheme accepts fixed-size datawords and stores them into raw page
    bits, re-encoding on every update.  When an update cannot be realized
    with program-without-erase, :meth:`write` raises
    :class:`~repro.errors.UnwritableError` and the underlying flash must be
    erased (the simulator counts an erase cycle and calls
    :meth:`fresh_state`).

    State is explicit (a numpy bit buffer) so the same scheme instance can
    serve many simulated pages concurrently.
    """

    def __init__(self, name: str, code: PageCode) -> None:
        #: Human-readable scheme name, e.g. ``"MFC-1/2-1BPC"``.
        self.name = name
        self.code = code
        #: Raw flash bits consumed by one logical unit of this scheme.
        self.raw_bits = code.page_bits
        #: Dataword size accepted by :meth:`write`.
        self.dataword_bits = code.dataword_bits

    @property
    def rate(self) -> float:
        """Host-visible capacity divided by raw capacity (paper Section VII)."""
        return self.dataword_bits / self.raw_bits

    def fresh_state(self) -> np.ndarray:
        """State of freshly erased raw flash."""
        return np.zeros(self.raw_bits, dtype=np.uint8)

    def write(self, state: np.ndarray, dataword: np.ndarray) -> np.ndarray:
        """Store ``dataword``; return the new state.

        Raises :class:`~repro.errors.UnwritableError` when an erase is
        required first.
        """
        return self.code.encode(dataword, state)

    def read(self, state: np.ndarray) -> np.ndarray:
        """Recover the most recently written dataword."""
        return self.code.decode(state)

    def cell_levels(self, state: np.ndarray) -> np.ndarray | None:
        """Current v-cell levels, if this scheme is cell-based (else None).

        Used by the Fig. 15/16 instrumentation.
        """
        varray = self.code.varray
        return None if varray is None else varray.levels(state)

    @property
    def last_write_levels(self) -> np.ndarray | None:
        """``(lanes, cells)`` v-cell levels the most recent :meth:`write` or
        :meth:`write_batch` left, one row per lane (one for :meth:`write`),
        as the code's page program set them; None when the code does not
        report them, and then :meth:`cell_levels` counts them."""
        return self.code.last_write_levels

    # -- batched interface: states are one (lanes, raw_bits) array ------------

    def fresh_states(self, lanes: int) -> np.ndarray:
        """States of ``lanes`` freshly erased units, one row per lane."""
        return np.zeros((lanes, self.raw_bits), dtype=np.uint8)

    def write_batch(
        self, states: np.ndarray | Sequence[np.ndarray], datawords: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Store one dataword per lane; return ``(new_states, writable)``.

        ``datawords`` is ``(lanes, dataword_bits)``.  Lanes that would need
        an erase keep their previous state and are reported as False in the
        ``writable`` mask — the batched counterpart of
        :class:`~repro.errors.UnwritableError`.
        """
        states = np.asarray(states, dtype=np.uint8)
        # Not narrowed here: the code checks that a wider dataword holds bits.
        return self.code.encode_batch(np.asarray(datawords), states)

    def read_batch(
        self, states: np.ndarray | Sequence[np.ndarray]
    ) -> np.ndarray:
        """Recover the ``(lanes, dataword_bits)`` stored datawords."""
        return self.code.decode_batch(np.asarray(states, dtype=np.uint8))

    def cell_levels_batch(
        self, states: np.ndarray | Sequence[np.ndarray]
    ) -> np.ndarray | None:
        """Per-lane v-cell levels ``(lanes, cells)``, or None if not cell-based."""
        varray = self.code.varray
        if varray is None:
            return None
        return varray.levels_batch(np.asarray(states, dtype=np.uint8))

    def __str__(self) -> str:
        return (
            f"{self.name} (rate {self.rate:.4f}, {self.dataword_bits} data "
            f"bits over {self.raw_bits} raw bits)"
        )
