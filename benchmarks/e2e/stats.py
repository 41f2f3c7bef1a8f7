"""Small statistics helpers: percentiles, run-to-run spread, interval unions."""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

__all__ = ["median", "percentile", "spread_share", "union_length"]


def percentile(values: Iterable[float], q: float) -> float:
    """Exact nearest-rank percentile (``q`` in (0, 1]); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value; 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


def spread_share(values: Sequence[float]) -> float:
    """Interquartile range over the median, the contract's run-to-run spread.

    Quartiles are ``statistics.quantiles(values, n=4)``; fewer than two
    values, or a zero median, have no spread to speak of and give 0.0.
    """
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
