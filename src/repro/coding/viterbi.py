"""Minimum-wear-cost Viterbi search over a coset of a convolutional code.

Given a coset representative ``t`` (one stream array per page write) and the
current levels of the page's v-cells, the search finds the codeword ``c``
minimizing the total write cost of ``y = t XOR c`` under a
:class:`~repro.coding.cost.CellCodebook`.  This is the engine behind every
Methuselah Flash Code: the dataword fixes the coset, the Viterbi picks which
member to write (paper Section V).

The search is array-first: :meth:`CosetViterbi.search_batch` runs ``B``
independent pages in lockstep with path metrics of shape
``(B, num_states)``, and :meth:`CosetViterbi.search` is its ``B = 1``
wrapper.  Lanes whose coset has no writable member are reported through
:attr:`ViterbiBatchResult.writable` instead of an exception, so one
saturated page never aborts the whole batch.

Kernel layout
-------------
The add-compare-select recursion is sequential in trellis steps, so for
the small state counts the paper uses (64 states at K=7) the wall clock
is dispatch, not arithmetic.  The whole search (forward pass, end state,
backtrace) is one call of a pluggable backend from
:mod:`repro.coding.kernels`: a C kernel built on first use, or the
always-available numpy loop over steps.  Both run the same one-step
recursion; for the C kernel the branch costs are laid out ahead, one
contiguous vector per (level row, coset chunk), so a trellis step
gathers nothing.  The backend is chosen per ``CosetViterbi`` via the
``backend`` argument or ``REPRO_VITERBI_BACKEND``; a searcher the C
kernel does not serve (a non-integral metric, a trellis that is not a
shift register, a level space too large to tabulate) runs numpy whatever
was asked for.

Path metrics are exact integers when every finite metric cost is a
non-negative integer (the paper's metric and both ablations), so each
backend narrows them as far as stays exact: numpy's to float32 when the
worst-case total fits 2**24, the C kernel's to uint8 over the expanded
table (renormalised every 8 steps), else to int16 (every 16), with a lane
that could overflow redone wider in the same call: uint8 in int16, int16
in float64.  Any other metric keeps float64.  Every backend is bit-identical to
the historical recursion for every metric (pinned by
``tests/coding/test_viterbi_kernel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.coding.convolutional import Trellis
from repro.coding.cost import CellCodebook
from repro.coding.kernels import (
    INT16_BIG,
    INT16_RENORM,
    UINT8_BIG,
    UINT8_RENORM,
    ParameterBlock,
    resolve_backend,
)
from repro.errors import ConfigurationError, UnwritableError

__all__ = ["CosetViterbi", "ViterbiResult", "ViterbiBatchResult"]

#: Largest expanded uint8 branch-cost table built for the native kernel, one
#: 2S cost vector per (level row, coset chunk).  The largest it must cover is
#: mfc-4/5 at K=7 on 4-level cells: 4**5 level rows x 2**5 chunks x 128 bytes,
#: 4 MiB, so every registry code at K <= 7 on those cells expands.  A searcher
#: past it (8-level cells at rate 1/4 or 1/5, rate 1/5 at more than 64 states)
#: searches in int16, gathering each cost from the fused table as it goes.
_EXPANDED_BYTES = 4**5 * 2**5 * 128


@dataclass(frozen=True)
class ViterbiResult:
    """Outcome of a coset search.

    Attributes
    ----------
    codeword_values:
        ``(steps,)`` packed ``m``-bit codeword chunk per trellis step
        (``y = t XOR c``).
    target_levels:
        ``(steps, cells_per_step)`` post-write level of every v-cell.
    total_cost:
        The metric cost of the chosen codeword (finite by construction).
    """

    codeword_values: np.ndarray
    target_levels: np.ndarray
    total_cost: float


@dataclass(eq=False)
class ViterbiBatchResult:
    """Outcome of a batched coset search over ``B`` independent pages.

    Not frozen, since a frozen dataclass sets each field through
    ``object.__setattr__`` and every page write builds one, but no one
    assigns to it: its arrays are the search's.

    Attributes
    ----------
    codeword_values:
        ``(B, steps)`` packed codeword chunks per lane, all zeros on an
        unwritable lane: no coset member is written there, and a backend
        may stop searching such a lane where its last path dies.
    total_costs:
        ``(B,)`` metric cost per lane (``inf`` on unwritable lanes).
    writable:
        ``(B,)`` bool; False marks lanes whose page must be erased.  The
        target entries of unwritable lanes are those of the zero codeword
        and must not be committed.
    step_levels, searcher:
        What was searched and by whom: :attr:`target_levels` is made of them.
    """

    codeword_values: np.ndarray
    total_costs: np.ndarray
    writable: np.ndarray
    step_levels: np.ndarray
    searcher: CosetViterbi

    @cached_property
    def target_levels(self) -> np.ndarray:
        """``(B, steps, cells_per_step)`` post-write levels per lane, computed
        on first access: the native page program never asks."""
        symbols = self.searcher.symbol_of_value.take(self.codeword_values, axis=0)
        return self.searcher.codebook.chunk_targets(self.step_levels, symbols)

    def __len__(self) -> int:
        return len(self.total_costs)

    def lane(self, index: int) -> ViterbiResult:
        """The scalar result of one writable lane."""
        if not self.writable[index]:
            raise UnwritableError(
                "no codeword in the coset is writable onto the current page"
            )
        return ViterbiResult(
            codeword_values=self.codeword_values[index],
            target_levels=self.target_levels[index],
            total_cost=float(self.total_costs[index]),
        )


class CosetViterbi:
    """Reusable searcher for one (trellis, codebook) pair.

    ``backend`` names the kernel implementation (default: the
    ``REPRO_VITERBI_BACKEND`` environment variable, falling back to
    ``"auto"`` — native when it builds, else numpy).  Backend choice never
    changes results, only wall clock; :attr:`backend` is the one that
    runs, which is numpy for a searcher the named one does not serve.
    """

    def __init__(
        self,
        trellis: Trellis,
        codebook: CellCodebook,
        backend: str | None = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        m = trellis.outputs_per_step
        if m % codebook.bits_per_cell != 0:
            raise ConfigurationError(
                f"{m} output bits per step do not divide into "
                f"{codebook.bits_per_cell}-bit cell symbols"
            )
        self.trellis = trellis
        self.codebook = codebook
        self.cells_per_step = m // codebook.bits_per_cell
        self.num_values = 1 << m
        num_states = trellis.num_states
        # symbol_of_value[v, i] = the i-th cell's symbol within packed chunk v.
        values = np.arange(self.num_values, dtype=np.int64)
        shifts = np.arange(self.cells_per_step, dtype=np.int64) * codebook.bits_per_cell
        mask = (1 << codebook.bits_per_cell) - 1
        self.symbol_of_value = (values[:, None] >> shifts[None, :]) & mask
        # Branch outputs gathered at each state's predecessors: lets the
        # branch-cost slab be built with two gathers per chunk of steps.
        self._pred_output = trellis.output_values[
            trellis.prev_state, trellis.prev_input
        ]
        # xor_gather[v, s, k] = pred_output[s, k] ^ v for every packed chunk
        # value, so branch costs are a pure table gather with no XOR
        # broadcasting anywhere near the hot loop.
        self._xor_gather = (
            self._pred_output[None, :, :] ^ values[:, None, None]
        ).astype(np.int64)
        # Flat predecessor-major layout j = k * num_states + s shared by the
        # branch-cost slabs and the path-metric gathers of the numpy backend.
        self._xg_flat = np.ascontiguousarray(
            self._xor_gather.transpose(0, 2, 1).reshape(
                self.num_values, 2 * num_states
            )
        )
        prev = trellis.prev_state.astype(np.int64)
        self._prev_src = prev
        self._prev_flat = np.ascontiguousarray(prev.T).reshape(-1).astype(np.intp)
        # Fused per-step cost table: cost of writing packed chunk v onto a
        # step whose cells sit at the level combination i (base-L digits,
        # most significant cell first).  Collapses the per-cell gather+sum
        # of chunk_costs into one table row per step; skipped when the
        # level-combination space is too large to tabulate.
        num_levels = codebook.cost_table.shape[0]
        self._num_levels = num_levels
        if num_levels**self.cells_per_step * self.num_values <= (1 << 22):
            combos = np.indices(
                (num_levels,) * self.cells_per_step
            ).reshape(self.cells_per_step, -1).T
            fused = np.zeros((combos.shape[0], self.num_values))
            for cell in range(self.cells_per_step):
                fused += codebook.cost_table[
                    combos[:, cell][:, None],
                    self.symbol_of_value[None, :, cell],
                ]
            self._fused_flat = {
                np.dtype(np.float32): np.ascontiguousarray(
                    fused.reshape(-1), dtype=np.float32
                ),
                np.dtype(np.float64): np.ascontiguousarray(
                    fused.reshape(-1)
                ),
            }
        else:
            self._fused_flat = None
        # Exact-arithmetic guard.  float32 narrows the path metrics, which
        # is only exact when every finite cost is a non-negative integer
        # (sums of exact integers below the mantissa limit are representable).
        finite = codebook.cost_table[np.isfinite(codebook.cost_table)]
        self._integral_costs = bool(
            finite.size == 0
            or ((finite >= 0).all() and (finite == np.floor(finite)).all())
        )
        self._max_step_cost = (
            float(finite.max()) * self.cells_per_step if finite.size else 0.0
        )
        # Only the numpy backend is required to serve a non-integral metric,
        # or a trellis that is not a shift register (every registry code is
        # one): state s is entered from s >> 1 and (s >> 1) + S/2, consuming
        # the input in its low bit.  Such a searcher resolves to numpy here,
        # and its backend.name says so.
        states = np.arange(num_states)[:, None]
        shift_register = (trellis.prev_input == states & 1).all() and (
            trellis.prev_state == (states >> 1) + [0, num_states // 2]
        ).all()
        if (
            not self._integral_costs
            or not shift_register
            or (self.backend.needs_fused_table and self._fused_flat is None)
        ):
            self.backend = resolve_backend("numpy")
        if self.backend.needs_fused_table:
            # The native kernel's tables, converted once.  It walks a step as
            # S/2 butterflies, so _order[v] lists the branch outputs as [u][k][j]
            # (entering state 2j+u from its k-th predecessor) XOR coset chunk v,
            # in 16 bits, which gcc vectorises a gather through; the int16 and
            # float64 searches gather through it from the fused table.
            # _expanded is the uint8 fused table gathered through it ahead:
            # one contiguous 2S cost vector per (level row, coset chunk), when
            # uint8 is exact and that fits the cap.
            self._out_values = trellis.output_values.astype(np.int32)
            order = self._pred_output.reshape(-1, 2, 2).transpose(1, 2, 0).ravel()
            self._order = (order ^ values[:, None]).astype(np.uint16)
            # Metrics of a width are exact while no finite one reaches its BIG:
            # one above its limit after a renormalisation could before the
            # next (with a step to spare).  Costs making _limit negative run
            # float64, and _limit8 negative int16.
            fused = self._fused_flat[np.dtype(np.float64)]
            self._limit = int(INT16_BIG - 1 - (INT16_RENORM + 1) * self._max_step_cost)
            self._limit8 = int(UINT8_BIG - 1 - (UINT8_RENORM + 1) * self._max_step_cost)
            self._expanded = None
            if self._limit >= 0:
                self._fused_flat[np.dtype(np.int16)] = np.minimum(
                    fused, INT16_BIG
                ).astype(np.int16)
            if self._limit8 >= 0 and fused.size * 2 * num_states <= _EXPANDED_BYTES:
                self._expanded = (
                    np.minimum(fused, UINT8_BIG).astype(np.uint8)
                    .reshape(-1, self.num_values).take(self._order, axis=1)
                )
            self._bind_search_tables()

    def _bind_search_tables(self) -> None:
        """Bind the native search's block once: the trellis's shape, the
        limits and the tables, each converted to C order and the kernel's
        dtype.  :attr:`_search_block` keeps the arrays alive while C reads
        them; a table withheld (None) is bound NULL."""
        self._search_block = ParameterBlock(
            "search", states=self.trellis.num_states, cells=self.cells_per_step,
            levels=self._num_levels, values=self.num_values, limit8=self._limit8,
            limit=self._limit, order=self._order,
            costs16=self._fused_flat.get(np.dtype(np.int16)),
            expanded=self._expanded,
            costs64=self._fused_flat[np.dtype(np.float64)],
            out_values=self._out_values,
        )

    def step_cost_table(self, step_levels: np.ndarray) -> np.ndarray:
        """Cost of writing each packed chunk value at each step.

        ``step_levels`` is ``(..., steps, cells_per_step)`` with any leading
        batch axes; the result is ``(..., steps, 2**m)``.
        """
        levels = np.asarray(step_levels, dtype=np.int64)
        return self.codebook.chunk_costs(levels, self.symbol_of_value)

    def search(
        self, representative_values: np.ndarray, step_levels: np.ndarray
    ) -> ViterbiResult:
        """Find the minimum-cost writable codeword in the coset.

        A thin ``B = 1`` wrapper over :meth:`search_batch` with identical
        results.

        Parameters
        ----------
        representative_values:
            ``(steps,)`` packed ``m``-bit chunks of the coset representative.
        step_levels:
            ``(steps, cells_per_step)`` current v-cell levels.

        Raises
        ------
        UnwritableError
            If every coset member would increment a saturated cell (or
            request an unreachable level); the page must be erased.
        """
        reps = np.asarray(representative_values, dtype=np.int64)
        steps = len(reps)
        levels = np.asarray(step_levels, dtype=np.int64)
        if levels.shape != (steps, self.cells_per_step):
            raise ConfigurationError(
                f"step_levels must be ({steps}, {self.cells_per_step}), "
                f"got {levels.shape}"
            )
        batch = self.search_batch(reps[None, :], levels[None, :, :])
        return batch.lane(0)

    def search_batch(
        self, representative_values: np.ndarray, step_levels: np.ndarray
    ) -> ViterbiBatchResult:
        """Run the coset search for ``B`` independent pages in lockstep.

        Parameters
        ----------
        representative_values:
            ``(B, steps)`` packed coset-representative chunks, one row per
            lane.
        step_levels:
            ``(B, steps, cells_per_step)`` current v-cell levels per lane.

        The numpy backend vectorizes the add-compare-select recursion
        over the batch axis and loops over trellis steps in Python; the
        native kernel runs each lane to its codeword in C.  Unwritable lanes
        are flagged in the result mask instead of raising, so callers can
        recycle those pages and keep the batch going.
        """
        reps = np.asarray(representative_values, dtype=np.int64)
        if reps.ndim != 2:
            raise ConfigurationError(
                f"representative_values must be (lanes, steps), got shape "
                f"{reps.shape}"
            )
        lanes, steps = reps.shape
        levels = np.asarray(step_levels, dtype=np.int64)
        if levels.shape != (lanes, steps, self.cells_per_step):
            raise ConfigurationError(
                f"step_levels must be ({lanes}, {steps}, "
                f"{self.cells_per_step}), got {levels.shape}"
            )
        return ViterbiBatchResult(*self.backend.search(self, reps, levels), levels, self)
