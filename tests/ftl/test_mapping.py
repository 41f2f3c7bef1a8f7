"""Tests for logical-to-physical mapping bookkeeping."""

from __future__ import annotations

import pytest

from repro.errors import FTLError, LogicalAddressError
from repro.ftl import PageMapping, PhysicalPageState


@pytest.fixture
def mapping() -> PageMapping:
    return PageMapping(logical_pages=4, blocks=2, pages_per_block=4)


class TestMapping:
    def test_initially_unmapped_and_free(self, mapping: PageMapping) -> None:
        assert mapping.lookup(0) is None
        assert mapping.state((0, 0)) is PhysicalPageState.FREE
        assert mapping.mapped_count() == 0

    def test_map_and_lookup(self, mapping: PageMapping) -> None:
        mapping.map(2, (0, 1))
        assert mapping.lookup(2) == (0, 1)
        assert mapping.owner((0, 1)) == 2
        assert mapping.state((0, 1)) is PhysicalPageState.LIVE

    def test_remap_invalidates_previous(self, mapping: PageMapping) -> None:
        mapping.map(1, (0, 0))
        mapping.map(1, (1, 0))
        assert mapping.lookup(1) == (1, 0)
        assert mapping.state((0, 0)) is PhysicalPageState.INVALID
        assert mapping.owner((0, 0)) is None

    def test_cannot_map_onto_live_page(self, mapping: PageMapping) -> None:
        mapping.map(0, (0, 0))
        with pytest.raises(FTLError):
            mapping.map(1, (0, 0))

    def test_invalidate_requires_live(self, mapping: PageMapping) -> None:
        with pytest.raises(FTLError):
            mapping.invalidate((0, 0))

    def test_lpn_bounds(self, mapping: PageMapping) -> None:
        with pytest.raises(LogicalAddressError):
            mapping.lookup(4)
        with pytest.raises(LogicalAddressError):
            mapping.map(-1, (0, 0))

    def test_release_block(self, mapping: PageMapping) -> None:
        mapping.map(0, (0, 0))
        mapping.map(0, (0, 1))  # invalidates (0, 0)
        mapping.map(0, (1, 0))  # invalidates (0, 1)
        mapping.release_block(0)
        assert mapping.state((0, 0)) is PhysicalPageState.FREE
        assert mapping.state((0, 1)) is PhysicalPageState.FREE

    def test_release_with_live_pages_rejected(self, mapping: PageMapping) -> None:
        mapping.map(0, (0, 0))
        with pytest.raises(FTLError):
            mapping.release_block(0)

    def test_block_counters(self, mapping: PageMapping) -> None:
        mapping.map(0, (0, 0))
        mapping.map(1, (0, 1))
        mapping.map(1, (0, 2))  # (0,1) invalid now
        assert mapping.live_pages_in_block(0) == [(0, 0), (0, 2)]
        assert mapping.invalid_pages_in_block(0) == 1
        assert mapping.state((0, 3)) is PhysicalPageState.FREE

    def test_needs_logical_pages(self) -> None:
        with pytest.raises(FTLError):
            PageMapping(0, 1, 4)
