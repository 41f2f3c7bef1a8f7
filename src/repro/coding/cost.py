"""The codeword-selection metric and bit/cell codebooks.

Section V.A of the paper defines the per-cell write cost

    f(l, l', L) = 0         if l' == l
                = infinity  if l == L-1 and l' != l   (saturated)
                = l'        if l < l' < L             (balance increments)

The total cost of a candidate codeword is the sum over cells, and the
Viterbi search picks the coset member minimizing it.  Infinite cost also
covers *unreachable* targets (``l' < l``), which arise with the 2-bit-per-
cell mapping of Fig. 10 where each 2-bit value has exactly one level.

A :class:`CellCodebook` fixes how consecutive codeword bits map onto one
v-cell (Fig. 10):

* ``1bpc`` — waterfall mapping: the stored bit is the level's parity, so
  writing a flipped bit raises the level by one;
* ``2bpc`` — direct mapping: the 2-bit value *is* the level, so only values
  at or above the current level are writable.

The codebook precomputes, for each current level and each symbol value, the
write cost and the post-write level; the Viterbi search then never touches
Python-level logic in its hot loop.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "Metric",
    "methuselah_metric",
    "count_only_metric",
    "feasible_only_metric",
    "CellCodebook",
    "make_codebook",
]

#: A metric takes (current level, post-write level, number of levels) and
#: returns the cost of that cell write; ``math.inf`` marks infeasible moves.
Metric = Callable[[int, int, int], float]


def methuselah_metric(level: int, target: int, num_levels: int) -> float:
    """The paper's ``f(l, l', L)`` (Section V.A)."""
    if target == level:
        return 0.0
    if target < level or level == num_levels - 1 or target > num_levels - 1:
        return float("inf")
    return float(target)


def count_only_metric(level: int, target: int, num_levels: int) -> float:
    """Ablation: minimize the *number* of increments, no balancing (f = 1)."""
    if target == level:
        return 0.0
    if target < level or level == num_levels - 1 or target > num_levels - 1:
        return float("inf")
    return 1.0


def feasible_only_metric(level: int, target: int, num_levels: int) -> float:
    """Ablation: any feasible codeword is as good as any other (f = 0)."""
    if target == level:
        return 0.0
    if target < level or level == num_levels - 1 or target > num_levels - 1:
        return float("inf")
    return 0.0


@dataclass(frozen=True)
class CellCodebook:
    """Mapping between codeword-bit symbols and v-cell levels.

    Attributes
    ----------
    bits_per_cell:
        Codeword bits stored per v-cell (1 or 2 in the paper).
    num_levels:
        Levels of the underlying v-cell.
    cost_table:
        ``(num_levels, 2**bits_per_cell)`` float64; entry ``[l, v]`` is the
        metric cost of storing symbol ``v`` in a cell currently at level
        ``l`` (``inf`` when infeasible).
    target_table:
        Same shape, int64; the post-write level for each feasible entry
        (entries that are infeasible hold the current level and must never
        be committed — the search rejects infinite-cost codewords first).
    read_table:
        ``(num_levels,)`` int64; the symbol value represented by each level.
    name:
        Human-readable mapping name (``"1bpc"`` / ``"2bpc"``).
    """

    bits_per_cell: int
    num_levels: int
    cost_table: np.ndarray
    target_table: np.ndarray
    read_table: np.ndarray
    name: str

    @property
    def symbols(self) -> int:
        return 1 << self.bits_per_cell

    def chunk_costs(
        self, levels: np.ndarray, symbol_of_value: np.ndarray
    ) -> np.ndarray:
        """Cost of writing each packed chunk value onto each cell group.

        ``levels`` is ``(..., cells)`` current levels of one chunk's cells
        (any leading axes — trellis steps, batch lanes — broadcast);
        ``symbol_of_value`` is ``(values, cells)`` as precomputed by the
        Viterbi search.  Returns ``(..., values)`` summed costs.
        """
        per_cell = self.cost_table[levels[..., None, :], symbol_of_value]
        return per_cell.sum(axis=-1)

    def chunk_targets(
        self, levels: np.ndarray, symbols: np.ndarray
    ) -> np.ndarray:
        """Post-write levels for ``symbols`` written onto cells at ``levels``.

        Both arguments share the shape ``(..., cells)``; infeasible entries
        return the current level (callers must reject them via the cost
        first, exactly like :attr:`target_table`).
        """
        # One flat take: several times faster than a two-array fancy index.
        return self.target_table.reshape(-1).take(levels * self.symbols + symbols)


def _waterfall_target(level: int, symbol: int, num_levels: int) -> int:
    """Post-write level storing bit ``symbol`` at a waterfall cell at ``level``."""
    if level % 2 == symbol:
        return level
    return level + 1  # may exceed the max level; metric marks it infeasible


def make_codebook(
    bits_per_cell: int,
    num_levels: int = 4,
    metric: Metric = methuselah_metric,
) -> CellCodebook:
    """Build the Fig. 10 codebooks.

    ``bits_per_cell=1`` gives the waterfall (parity) mapping for any level
    count; ``bits_per_cell=2`` gives the direct value-equals-level mapping
    and requires a 4-level cell.
    """
    if bits_per_cell == 1:
        read_table = np.arange(num_levels, dtype=np.int64) % 2
        raw_targets = np.array(
            [
                [_waterfall_target(level, symbol, num_levels) for symbol in (0, 1)]
                for level in range(num_levels)
            ],
            dtype=np.int64,
        )
        name = "1bpc"
    elif bits_per_cell == 2:
        if num_levels != 4:
            raise ConfigurationError(
                "the 2-bit-per-cell mapping needs a 4-level v-cell"
            )
        read_table = np.arange(num_levels, dtype=np.int64)
        raw_targets = np.tile(np.arange(4, dtype=np.int64), (4, 1))
        name = "2bpc"
    else:
        raise ConfigurationError(
            f"unsupported bits_per_cell {bits_per_cell}; the paper uses 1 or 2"
        )
    cost_table = np.empty((num_levels, 1 << bits_per_cell), dtype=np.float64)
    target_table = np.empty_like(raw_targets)
    for level in range(num_levels):
        for symbol in range(1 << bits_per_cell):
            target = int(raw_targets[level, symbol])
            cost = metric(level, target, num_levels)
            cost_table[level, symbol] = cost
            target_table[level, symbol] = target if np.isfinite(cost) else level
    return CellCodebook(
        bits_per_cell=bits_per_cell,
        num_levels=num_levels,
        cost_table=cost_table,
        target_table=target_table,
        read_table=read_table,
        name=name,
    )
