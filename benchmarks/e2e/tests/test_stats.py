"""Percentile, spread and interval-union helpers."""

import statistics

import pytest

from benchmarks.e2e import stats


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.99) == 5.0
    assert stats.percentile(values, 0.2) == 1.0
    assert stats.percentile(values, 0.21) == 2.0
    assert stats.percentile(range(1, 1001), 0.99) == 990  # ten samples beyond
    assert stats.percentile([], 0.5) == 0.0


def test_spread_is_iqr_over_median_as_the_contract_takes_it():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.spread_share(values) == pytest.approx(
        (third - first) / statistics.median(values)
    )
    assert stats.spread_share([3.0]) == 0.0
    assert stats.spread_share([]) == 0.0


def test_union_length_merges_overlaps():
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.union_length([(0, 10), (2, 3)]) == 10
    assert stats.union_length([]) == 0
