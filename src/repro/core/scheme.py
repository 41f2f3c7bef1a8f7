"""The rewriting-scheme interface used by every evaluation in the paper.

Every scheme exposes two faces of the same contract: the scalar methods
(:meth:`RewritingScheme.write` / :meth:`~RewritingScheme.read`) operate on
one state, and the batched methods (:meth:`~RewritingScheme.write_batch` /
:meth:`~RewritingScheme.read_batch`) run ``B`` independent states in
lockstep.  The batched default loops over the scalar path so third-party
schemes keep working unchanged; array-backed schemes
(:class:`PageCodeScheme`) override it with natively vectorized
implementations.  Batched writes never raise
:class:`~repro.errors.UnwritableError` — exhausted lanes come back
unchanged with a False entry in the returned mask.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from repro.coding.page_code import PageCode
from repro.errors import UnwritableError

__all__ = ["RewritingScheme", "PageCodeScheme"]


class RewritingScheme(abc.ABC):
    """A lifetime-extension scheme over some amount of raw flash.

    A scheme accepts fixed-size datawords and stores them into raw page
    bits, re-encoding on every update.  When an update cannot be realized
    with program-without-erase, :meth:`write` raises
    :class:`~repro.errors.UnwritableError` and the underlying flash must be
    erased (the simulator counts an erase cycle and calls
    :meth:`fresh_state`).

    State is explicit (a numpy bit buffer, or a scheme-defined structure) so
    the same scheme instance can serve many simulated pages concurrently.
    """

    #: Human-readable scheme name, e.g. ``"MFC-1/2-1BPC"``.
    name: str
    #: Raw flash bits consumed by one logical unit of this scheme.
    raw_bits: int
    #: Dataword size accepted by :meth:`write`.
    dataword_bits: int

    @property
    def rate(self) -> float:
        """Host-visible capacity divided by raw capacity (paper Section VII)."""
        return self.dataword_bits / self.raw_bits

    @abc.abstractmethod
    def fresh_state(self):
        """State of freshly erased raw flash."""

    @abc.abstractmethod
    def write(self, state, dataword: np.ndarray):
        """Store ``dataword``; return the new state.

        Raises :class:`~repro.errors.UnwritableError` when an erase is
        required first.
        """

    @abc.abstractmethod
    def read(self, state) -> np.ndarray:
        """Recover the most recently written dataword."""

    def cell_levels(self, state) -> np.ndarray | None:
        """Current v-cell levels, if this scheme is cell-based (else None).

        Used by the Fig. 15/16 instrumentation.
        """
        return None

    @property
    def last_write_levels(self) -> np.ndarray | None:
        """``(lanes, cells)`` v-cell levels the most recent :meth:`write` or
        :meth:`write_batch` left, one row per lane (one for :meth:`write`),
        as the code's page program set them; None when the code does not
        report them, and then :meth:`cell_levels` counts them."""
        return None

    # -- batched interface -----------------------------------------------------
    #
    # Batched states are whatever container the scheme chooses: an ndarray
    # with a leading lane axis for array-backed schemes, or any sequence
    # indexable by lane for structured states.  The defaults below keep the
    # two faces consistent for every scheme; overriding them is purely a
    # performance decision.

    def fresh_states(self, lanes: int):
        """States of ``lanes`` freshly erased units, indexable by lane."""
        return [self.fresh_state() for _ in range(lanes)]

    def write_batch(self, states, datawords: np.ndarray):
        """Store one dataword per lane; return ``(new_states, writable)``.

        ``datawords`` is ``(lanes, dataword_bits)``.  Lanes that would need
        an erase keep their previous state and are reported as False in the
        ``writable`` mask — the batched counterpart of
        :class:`~repro.errors.UnwritableError`.
        """
        lanes = len(states)
        writable = np.ones(lanes, dtype=bool)
        new_states = list(states) if not isinstance(states, np.ndarray) else states.copy()
        for lane in range(lanes):
            try:
                new_states[lane] = self.write(states[lane], datawords[lane])
            except UnwritableError:
                writable[lane] = False
        return new_states, writable

    def read_batch(self, states) -> np.ndarray:
        """Recover the ``(lanes, dataword_bits)`` stored datawords."""
        return np.stack([self.read(state) for state in states])

    def cell_levels_batch(self, states) -> np.ndarray | None:
        """Per-lane v-cell levels ``(lanes, cells)``, or None if not cell-based."""
        levels = [self.cell_levels(state) for state in states]
        if any(lane_levels is None for lane_levels in levels):
            return None
        return np.stack(levels)

    def __str__(self) -> str:
        return (
            f"{self.name} (rate {self.rate:.4f}, {self.dataword_bits} data "
            f"bits over {self.raw_bits} raw bits)"
        )


class PageCodeScheme(RewritingScheme):
    """A scheme backed by a single-page :class:`~repro.coding.page_code.PageCode`."""

    def __init__(self, name: str, code: PageCode) -> None:
        self.name = name
        self.code = code
        self.raw_bits = code.page_bits
        self.dataword_bits = code.dataword_bits

    def fresh_state(self) -> np.ndarray:
        return np.zeros(self.raw_bits, dtype=np.uint8)

    def write(self, state: np.ndarray, dataword: np.ndarray) -> np.ndarray:
        return self.code.encode(dataword, state)

    def read(self, state: np.ndarray) -> np.ndarray:
        return self.code.decode(state)

    def cell_levels(self, state: np.ndarray) -> np.ndarray | None:
        varray = getattr(self.code, "varray", None)
        if varray is None:
            return None
        return varray.levels(state)

    @property
    def last_write_levels(self) -> np.ndarray | None:
        return getattr(self.code, "last_write_levels", None)

    # -- batched interface (native: states are one (lanes, raw_bits) array) ---

    def fresh_states(self, lanes: int) -> np.ndarray:
        return np.zeros((lanes, self.raw_bits), dtype=np.uint8)

    def write_batch(
        self, states: np.ndarray | Sequence[np.ndarray], datawords: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        states = np.asarray(states, dtype=np.uint8)
        # Not narrowed here: the code checks that a wider dataword holds bits.
        return self.code.encode_batch(np.asarray(datawords), states)

    def read_batch(
        self, states: np.ndarray | Sequence[np.ndarray]
    ) -> np.ndarray:
        return self.code.decode_batch(np.asarray(states, dtype=np.uint8))

    def cell_levels_batch(
        self, states: np.ndarray | Sequence[np.ndarray]
    ) -> np.ndarray | None:
        varray = getattr(self.code, "varray", None)
        if varray is None:
            return None
        return varray.levels_batch(np.asarray(states, dtype=np.uint8))
