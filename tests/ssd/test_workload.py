"""Tests for workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload import (
    HotColdWorkload,
    OpKind,
    SequentialWorkload,
    UniformWorkload,
    ZipfWorkload,
    payload_for,
)


class TestUniform:
    def test_covers_address_space(self) -> None:
        wl = UniformWorkload(16, seed=0)
        seen = {wl.next_lpn() for _ in range(500)}
        assert seen == set(range(16))

    def test_deterministic(self) -> None:
        a = [UniformWorkload(16, seed=5).next_lpn() for _ in range(10)]
        b = [UniformWorkload(16, seed=5).next_lpn() for _ in range(10)]
        assert a == b

    def test_data_is_binary(self) -> None:
        wl = UniformWorkload(4, seed=0)
        data = payload_for(next(wl), 64)
        assert data.shape == (64,) and set(np.unique(data)) <= {0, 1}


class TestSequential:
    def test_round_robin(self) -> None:
        wl = SequentialWorkload(3)
        assert [wl.next_lpn() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]


class TestHotCold:
    def test_hot_pages_dominate(self) -> None:
        wl = HotColdWorkload(100, seed=1, hot_fraction=0.2, hot_probability=0.8)
        hits = sum(1 for _ in range(2000) if wl.next_lpn() < wl.hot_pages)
        assert 0.7 < hits / 2000 < 0.9

    def test_cold_pages_still_written(self) -> None:
        wl = HotColdWorkload(100, seed=2)
        assert any(wl.next_lpn() >= wl.hot_pages for _ in range(200))

    def test_bad_fractions(self) -> None:
        with pytest.raises(ConfigurationError):
            HotColdWorkload(10, hot_fraction=0.0)
        with pytest.raises(ConfigurationError):
            HotColdWorkload(10, hot_probability=1.5)


class TestZipf:
    def test_rank_one_is_most_popular(self) -> None:
        wl = ZipfWorkload(50, seed=3, skew=1.2)
        counts = np.zeros(50, int)
        for _ in range(3000):
            counts[wl.next_lpn()] += 1
        assert counts[0] == counts.max()
        assert counts[0] > 3 * counts[25:].max()

    def test_bad_skew(self) -> None:
        with pytest.raises(ConfigurationError):
            ZipfWorkload(10, skew=0)

    def test_lpns_in_range(self) -> None:
        wl = ZipfWorkload(8, seed=4)
        assert all(0 <= wl.next_lpn() < 8 for _ in range(200))

    @pytest.mark.parametrize("pages", [12, 395])
    def test_the_largest_draw_reads_the_last_page(self, pages) -> None:
        """At these page counts the weights' running sum ends below 1.0,
        so the largest draw ``random()`` can return used to land one past
        the last page."""
        ranks = np.arange(1, pages + 1, dtype=np.float64)
        assert np.cumsum(1 / ranks / (1 / ranks).sum())[-1] < 1.0
        wl = ZipfWorkload(pages, seed=0)

        class Largest:
            def random(self) -> float:
                return float(np.nextafter(1.0, 0))

        wl.rng = Largest()
        assert wl.next_lpn() == pages - 1


class TestValidation:
    def test_empty_address_space_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            UniformWorkload(0)


class TestIteration:
    """Workloads are infinite op iterators shared by simulator and loadgen."""

    def test_next_op_lpns_match_next_lpn(self) -> None:
        a, b = UniformWorkload(16, seed=7), UniformWorkload(16, seed=7)
        assert [next(a).lpn for _ in range(20)] == [
            b.next_lpn() for _ in range(20)
        ]

    def test_iter_returns_self(self) -> None:
        wl = SequentialWorkload(4)
        assert iter(wl) is wl

    def test_islice_consumes_prefix(self) -> None:
        import itertools

        wl = SequentialWorkload(3)
        ops = list(itertools.islice(wl, 7))
        assert [op.lpn for op in ops] == [0, 1, 2, 0, 1, 2, 0]
        assert all(op.kind is OpKind.WRITE for op in ops)
        assert next(wl).lpn == 1  # keeps going; never StopIteration

    def test_for_loop_usable_with_external_bound(self) -> None:
        wl = ZipfWorkload(8, seed=4)
        ops = []
        for op in wl:
            ops.append(op)
            if len(ops) == 50:
                break
        assert len(ops) == 50 and all(0 <= op.lpn < 8 for op in ops)
