"""Instrumentation for the paper's Section VIII analyses (Figs. 15, 16)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["UpdateTrace"]


@dataclass
class UpdateTrace:
    """Accumulates per-update increment fractions and end-of-life levels.

    ``record_update`` is called once per successful page write with the cell
    levels before and after; ``record_erase`` once per erase with the final
    levels.  The summaries correspond directly to the paper's figures:

    * :meth:`increment_fraction_by_update` — Fig. 15's x-axis is the update
      number since the last erase, y-axis the average fraction of v-cells
      incremented;
    * :meth:`level_histogram` — Fig. 16's histogram of levels reached before
      the page is erased.
    """

    _fractions: dict[int, list[float]] = field(default_factory=dict)
    _histogram: np.ndarray | None = None

    def record_update(
        self, update_number: int, before: np.ndarray, after: np.ndarray
    ) -> None:
        """Record one write; ``update_number`` starts at 1 after an erase."""
        # An exact count over the size, correctly rounded: .mean()'s float64.
        changed = np.asarray(before) != np.asarray(after)
        fraction = np.count_nonzero(changed) / changed.size
        self._fractions.setdefault(update_number, []).append(fraction)

    def record_erase(self, final_levels: np.ndarray, num_levels: int) -> None:
        """Record the cell levels at the moment the page required an erase."""
        counts = np.bincount(np.asarray(final_levels), minlength=num_levels)
        if self._histogram is None:
            self._histogram = counts.astype(np.int64)
        else:
            if len(counts) > len(self._histogram):
                self._histogram = np.pad(
                    self._histogram, (0, len(counts) - len(self._histogram))
                )
            self._histogram[: len(counts)] += counts

    @property
    def has_data(self) -> bool:
        return bool(self._fractions) or self._histogram is not None

    def increment_fraction_by_update(self) -> dict[int, float]:
        """Average fraction of cells incremented, keyed by update number."""
        return {
            update: float(np.mean(values))
            for update, values in sorted(self._fractions.items())
        }

    def mean_increment_fraction(self) -> float:
        """Fig. 15's rightmost bar: the average over all updates."""
        all_values = [v for values in self._fractions.values() for v in values]
        if not all_values:
            return float("nan")
        return float(np.mean(all_values))

    def level_histogram(self, normalize: bool = True) -> np.ndarray:
        """Distribution of cell levels at erase time (Fig. 16)."""
        if self._histogram is None:
            return np.zeros(0)
        if not normalize:
            return self._histogram.copy()
        total = self._histogram.sum()
        if total == 0:
            return self._histogram.astype(float)
        return self._histogram / total
