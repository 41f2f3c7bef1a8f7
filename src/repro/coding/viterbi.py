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
is dispatch, not arithmetic.  When every finite metric cost is a
non-negative integer (true for the paper's metric and both ablations)
and the trellis is a shift register, the search (forward pass and
backtrace) runs through a pluggable backend from
:mod:`repro.coding.kernels`: a fused C kernel built on first use, or
the always-available numpy loops that fold two steps into one radix-4
iteration.  Path metrics drop to float32 whenever the worst-case total
fits its 2**24 exact-integer range; integer-valued float sums are
associative, so every backend is bit-identical (pinned by
``tests/coding/test_viterbi_kernel.py``).  The backend is chosen per
``CosetViterbi`` via the ``backend`` argument or ``REPRO_VITERBI_BACKEND``.

Non-integral metrics fall back to a float64 radix-2 loop that reproduces
the historical arithmetic operation for operation, so results are
bit-identical for every metric either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coding.convolutional import Trellis
from repro.coding.cost import CellCodebook
from repro.coding.kernels import _CHUNK_BYTES, resolve_backend
from repro.errors import ConfigurationError, UnwritableError
from repro.obs import registry as _metrics
from repro.obs.tracing import span as _span

__all__ = ["CosetViterbi", "ViterbiResult", "ViterbiBatchResult"]

#: Telemetry handles (live forever; self-gated on the registry's enabled
#: flag).  The ACS and backtrace phases additionally get spans per search —
#: never per trellis step, which keeps disabled overhead out of the kernel.
_SEARCHES = _metrics.counter("viterbi.searches")
_LANES = _metrics.counter("viterbi.lanes")
_UNWRITABLE = _metrics.counter("viterbi.unwritable_lanes")


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


@dataclass(frozen=True)
class ViterbiBatchResult:
    """Outcome of a batched coset search over ``B`` independent pages.

    Attributes
    ----------
    codeword_values:
        ``(B, steps)`` packed codeword chunks per lane.
    target_levels:
        ``(B, steps, cells_per_step)`` post-write levels per lane.
    total_costs:
        ``(B,)`` metric cost per lane (``inf`` on unwritable lanes).
    writable:
        ``(B,)`` bool; False marks lanes whose page must be erased.  The
        codeword and target entries of unwritable lanes are meaningless and
        must not be committed.
    """

    codeword_values: np.ndarray
    target_levels: np.ndarray
    total_costs: np.ndarray
    writable: np.ndarray

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

    ``backend`` names the kernel implementation for the integral fast
    path (default: the ``REPRO_VITERBI_BACKEND`` environment variable,
    falling back to ``"auto"`` — native when it builds, else numpy).
    Backend choice never changes results, only wall clock.
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
        # branch slabs, the path-metric gathers, and the pair-folding below.
        self._xg_flat = np.ascontiguousarray(
            self._xor_gather.transpose(0, 2, 1).reshape(
                self.num_values, 2 * num_states
            )
        )
        prev = trellis.prev_state.astype(np.int64)
        self._prev_src = prev
        self._prev_input = trellis.prev_input.astype(np.int64)
        self._out_values = trellis.output_values.astype(np.int64)
        self._prev_flat = np.ascontiguousarray(prev.T).reshape(-1).astype(np.intp)
        # Radix-4 tables: one iteration consumes two trellis steps; the
        # choice pair kk = 2*k1 + k0 first takes predecessor k1 at the later
        # step (reaching the "mid" state), then k0 at the earlier one.  kk
        # ascending matches the radix-2 tie-breaking exactly: ties prefer
        # k1 = 0 first (strict-less update), then k0 = 0 (first minimum).
        kk = np.arange(4)
        k1, k0 = kk >> 1, kk & 1
        self._mid_tab = prev[:, k1]  # (S, 4)
        self._src_tab = prev[self._mid_tab, k0[None, :]]  # (S, 4)
        self._prev2_flat = (
            np.ascontiguousarray(self._src_tab.T).reshape(-1).astype(np.intp)
        )
        # Plain nested lists for the numpy backend's single-lane backtrace.
        self._mid_list = self._mid_tab.tolist()
        self._src_list = self._src_tab.tolist()
        self._prev_list = prev.tolist()
        s_grid = np.arange(num_states)
        # Fold two branch slabs into the radix-4 slab: entry j2 = kk*S + s
        # sums the later step's (k1, s) branch and the earlier step's
        # (k0, mid) branch.
        self._pair_idx_late = (
            k1[:, None] * num_states + s_grid[None, :]
        ).reshape(-1)
        self._pair_idx_early = (
            k0[:, None] * num_states + self._mid_tab.T
        ).reshape(-1)
        # Composed radix-4 gather tables: entry [v, kk*S + s] is the flat
        # cost-row index of the branch chosen by (kk, s) when the step's
        # coset chunk is v — the XOR table and the pair fold in one lookup.
        self._xg2_late = np.ascontiguousarray(
            self._xg_flat[:, self._pair_idx_late], dtype=np.int32
        )
        self._xg2_early = np.ascontiguousarray(
            self._xg_flat[:, self._pair_idx_early], dtype=np.int32
        )
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
            if self.backend.needs_fused_table:
                self.backend = resolve_backend("numpy")
        # Exact-arithmetic guards.  Folding two steps regroups float adds,
        # and float32 narrows them; both are only exact when every finite
        # cost is a non-negative integer (sums of exact integers below the
        # mantissa limit are associative and representable).
        finite = codebook.cost_table[np.isfinite(codebook.cost_table)]
        self._integral_costs = bool(
            finite.size == 0
            or ((finite >= 0).all() and (finite == np.floor(finite)).all())
        )
        self._max_step_cost = (
            float(finite.max()) * self.cells_per_step if finite.size else 0.0
        )
        # The vectorized backtrace reads each step's input bit off the next
        # state (u = state & 1), which holds for shift-register trellises —
        # every registry code.  Anything else uses the generic radix-2 path.
        expected_inputs = np.broadcast_to(
            (np.arange(num_states) & 1)[:, None], trellis.prev_input.shape
        )
        self._shift_register_inputs = bool(
            np.array_equal(trellis.prev_input, expected_inputs)
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

        The numpy paths vectorize the add-compare-select recursion and
        the backtrace over the batch axis and loop over trellis steps in
        Python; the native kernel loops over lanes in C.  Unwritable lanes
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
        lane_index = np.arange(lanes)
        if self._integral_costs and self._shift_register_inputs and steps >= 2:
            dtype = (
                np.float32
                if steps * self._max_step_cost <= float(2**24 - 1)
                else np.float64
            )
            with _span(
                "viterbi.acs",
                lanes=lanes,
                steps=steps,
                radix=4,
                backend=self.backend.name,
            ):
                path, backptr = self.backend.forward(self, reps, levels, dtype)
            end_state = np.argmin(path, axis=1)
            total_costs = path[lane_index, end_state].astype(np.float64)
            with _span("viterbi.backtrace", lanes=lanes, steps=steps, radix=4):
                codeword_values = self.backend.backtrace(
                    self, reps, end_state, backptr
                )
        else:
            with _span("viterbi.acs", lanes=lanes, steps=steps, radix=2):
                path, backptr = self._forward_radix2(reps, levels)
            end_state = np.argmin(path, axis=1)
            total_costs = path[lane_index, end_state]
            with _span("viterbi.backtrace", lanes=lanes, steps=steps, radix=2):
                codeword_values = self._backtrace_radix2(
                    reps, end_state, backptr, lane_index
                )
        writable = np.isfinite(total_costs)
        _SEARCHES.inc()
        _LANES.inc(lanes)
        if not writable.all():
            _UNWRITABLE.inc(int(lanes - np.count_nonzero(writable)))
        symbols = self.symbol_of_value[codeword_values]  # (B, steps, cells)
        target_levels = self.codebook.chunk_targets(levels, symbols)
        return ViterbiBatchResult(
            codeword_values=codeword_values,
            target_levels=target_levels,
            total_costs=total_costs,
            writable=writable,
        )

    # -- hoisted branch-cost slabs ---------------------------------------------

    def _branch_chunks(self, reps, levels, dtype):
        """Yield contiguous branch-cost slabs covering the whole trellis.

        Each item is ``(first_step, branch)`` where ``branch`` has shape
        ``(B, chunk, 2 * states)``: entry ``[b, i, k*S + s]`` is the cost of
        lane ``b`` reaching state ``s`` at step ``first_step + i`` via
        predecessor ``k``.  Chunks are even-length (except possibly the
        last) so radix-4 pairs never straddle a chunk boundary.
        """
        lanes, steps = reps.shape
        row_bytes = 2 * self.trellis.num_states * lanes * 8
        chunk = max(2, _CHUNK_BYTES // max(row_bytes, 1))
        chunk -= chunk % 2
        for t0 in range(0, steps, chunk):
            t1 = min(steps, t0 + chunk)
            costs = self.step_cost_table(levels[:, t0:t1])  # (B, c, 2**m)
            gather = self._xg_flat[reps[:, t0:t1]]  # (B, c, 2S)
            # One flat gather instead of take_along_axis: row r of the
            # flattened (B * c, 2**m) cost table starts at r * 2**m.
            rows = lanes * gather.shape[1]
            gather += (
                np.arange(rows, dtype=np.int64) * self.num_values
            ).reshape(lanes, -1, 1)
            branch = costs.reshape(-1).take(gather)
            yield t0, branch.astype(dtype, copy=False)

    # -- generic radix-2 path (any metric, any 2-regular trellis) --------------

    def _forward_radix2(self, reps, levels):
        """One trellis step per iteration in float64 — the historical
        arithmetic, preserved exactly for non-integral metrics."""
        lanes, steps = reps.shape
        num_states = self.trellis.num_states
        path = np.zeros((lanes, num_states), dtype=np.float64)
        backptr = np.empty((steps, lanes, num_states), dtype=bool)
        inc = np.empty((lanes, 2, num_states), dtype=np.float64)
        inc_flat = inc.reshape(lanes, 2 * num_states)
        take_path = path.take
        prev_flat = self._prev_flat
        for t0, branch in self._branch_chunks(reps, levels, np.float64):
            slab = np.ascontiguousarray(branch.transpose(1, 0, 2))
            for i in range(slab.shape[0]):
                take_path(prev_flat, axis=1, out=inc_flat)
                inc_flat += slab[i]
                np.less(inc[:, 1], inc[:, 0], out=backptr[t0 + i])
                np.minimum(inc[:, 0], inc[:, 1], out=path)
        return path, backptr

    def _backtrace_radix2(self, reps, end_state, backptr, lane_index):
        lanes, steps = reps.shape
        choices = backptr.view(np.uint8)
        codeword_values = np.empty((lanes, steps), dtype=np.int64)
        state = end_state.astype(np.int64)
        for t in range(steps - 1, -1, -1):
            choice = choices[t, lane_index, state]
            source = self._prev_src[state, choice]
            u = self._prev_input[state, choice]
            codeword_values[:, t] = self._out_values[source, u] ^ reps[:, t]
            state = source
        return codeword_values
