"""The four classic distributions, ported to the op-stream protocol.

These are bit-identical ports of the pre-unification iterators: each
class draws LPNs from ``self.rng`` with the exact same calls in the exact
same order, so for any ``(seed, logical_pages)`` the emitted LPN sequence
matches the legacy ``next_lpn()`` stream value-for-value
(``tests/workload/test_golden_streams.py`` pins this against a fixture
recorded from the old implementation).
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.base import SyntheticWorkload

__all__ = [
    "HotColdWorkload",
    "SequentialWorkload",
    "UniformWorkload",
    "ZipfWorkload",
]


class UniformWorkload(SyntheticWorkload):
    """Every logical page equally likely — the friendliest case for wear."""

    def next_lpn(self) -> int:
        return int(self.rng.integers(0, self.logical_pages))


class SequentialWorkload(SyntheticWorkload):
    """Round-robin over the address space (streaming writes)."""

    def __init__(self, logical_pages: int, seed: int = 0, **kwargs) -> None:
        super().__init__(logical_pages, seed=seed, **kwargs)
        self._cursor = 0

    def next_lpn(self) -> int:
        lpn = self._cursor
        self._cursor = (self._cursor + 1) % self.logical_pages
        return lpn


class HotColdWorkload(SyntheticWorkload):
    """A fraction of pages ("hot") receives most of the writes.

    With default parameters 20% of the pages take 80% of the writes, the
    classic skew that concentrates wear without leveling.
    """

    def __init__(
        self,
        logical_pages: int,
        seed: int = 0,
        hot_fraction: float = 0.2,
        hot_probability: float = 0.8,
        **kwargs,
    ) -> None:
        super().__init__(logical_pages, seed=seed, **kwargs)
        if not 0 < hot_fraction < 1 or not 0 < hot_probability < 1:
            raise ConfigurationError("fractions must lie strictly in (0, 1)")
        self.hot_pages = max(1, int(round(logical_pages * hot_fraction)))
        self.hot_probability = hot_probability

    def next_lpn(self) -> int:
        if self.rng.random() < self.hot_probability:
            return int(self.rng.integers(0, self.hot_pages))
        if self.hot_pages == self.logical_pages:
            return int(self.rng.integers(0, self.logical_pages))
        return int(self.rng.integers(self.hot_pages, self.logical_pages))


class ZipfWorkload(SyntheticWorkload):
    """Zipf-distributed page popularity (rank r gets weight r^-s)."""

    def __init__(
        self, logical_pages: int, seed: int = 0, skew: float = 1.0, **kwargs
    ) -> None:
        super().__init__(logical_pages, seed=seed, **kwargs)
        if skew <= 0:
            raise ConfigurationError("skew must be positive")
        ranks = np.arange(1, logical_pages + 1, dtype=np.float64)
        weights = ranks ** (-skew)
        cdf = np.cumsum(weights / weights.sum())
        # The sum can round below 1.0 (12 pages do), and a draw above it
        # would read one past the last page; pinning it moves no other draw.
        cdf[-1] = 1.0
        #: A list: ``bisect_left`` on it picks ``np.searchsorted``'s index
        #: at a fraction of the cost per draw.
        self._cdf = cdf.tolist()

    def next_lpn(self) -> int:
        return bisect.bisect_left(self._cdf, self.rng.random())
