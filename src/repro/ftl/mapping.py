"""Logical-to-physical page mapping and physical page bookkeeping."""

from __future__ import annotations

import enum

from repro.errors import FTLError, LogicalAddressError

__all__ = ["PhysicalPageState", "PageMapping"]

PhysAddr = tuple[int, int]  # (block index, page index)


class PhysicalPageState(enum.Enum):
    """FTL-level state of one physical page.

    ``FREE`` pages are erased and available.  ``LIVE`` pages hold the current
    data of some logical page.  ``INVALID`` pages hold stale data and are
    reclaimed by garbage collection.
    """

    FREE = "free"
    LIVE = "live"
    INVALID = "invalid"


class PageMapping:
    """Tracks logical->physical mapping and per-physical-page states."""

    def __init__(self, logical_pages: int, blocks: int, pages_per_block: int) -> None:
        if logical_pages < 1:
            raise FTLError("need at least one logical page")
        self.logical_pages = logical_pages
        self.blocks = blocks
        self.pages_per_block = pages_per_block
        self._forward: dict[int, PhysAddr] = {}
        self._reverse: dict[PhysAddr, int] = {}
        self._states: dict[PhysAddr, PhysicalPageState] = {
            (block, page): PhysicalPageState.FREE
            for block in range(blocks)
            for page in range(pages_per_block)
        }

    def check_lpn(self, lpn: int) -> None:
        """Raise unless ``lpn`` is inside the logical address space."""
        if not 0 <= lpn < self.logical_pages:
            raise LogicalAddressError(
                f"logical page {lpn} out of range [0, {self.logical_pages})"
            )

    def lookup(self, lpn: int) -> PhysAddr | None:
        """Physical address currently holding ``lpn``, if any."""
        self.check_lpn(lpn)
        return self._forward.get(lpn)

    def owner(self, addr: PhysAddr) -> int | None:
        """Logical page stored at ``addr``, if it is live."""
        return self._reverse.get(addr)

    def state(self, addr: PhysAddr) -> PhysicalPageState:
        """FTL state of one physical page (free / live / invalid)."""
        return self._states[addr]

    def map(self, lpn: int, addr: PhysAddr) -> None:
        """Point ``lpn`` at ``addr``, invalidating any previous location."""
        self.check_lpn(lpn)
        if self._states[addr] is not PhysicalPageState.FREE:
            raise FTLError(f"cannot map onto non-free page {addr}")
        previous = self._forward.get(lpn)
        if previous is not None:
            self.invalidate(previous)
        self._forward[lpn] = addr
        self._reverse[addr] = lpn
        self._states[addr] = PhysicalPageState.LIVE

    def invalidate(self, addr: PhysAddr) -> None:
        """Mark a live physical page stale (its data was superseded)."""
        if self._states[addr] is not PhysicalPageState.LIVE:
            raise FTLError(f"cannot invalidate {addr}: not live")
        lpn = self._reverse.pop(addr)
        if self._forward.get(lpn) == addr:
            del self._forward[lpn]
        self._states[addr] = PhysicalPageState.INVALID

    def discard(self, addr: PhysAddr) -> None:
        """Mark a free page unusable-until-erase.

        A failed program consumes its page without storing anything; the
        page must become garbage (not stay free) so GC still reclaims the
        block even though no data was ever mapped there.
        """
        if self._states[addr] is not PhysicalPageState.FREE:
            raise FTLError(f"cannot discard {addr}: not free")
        self._states[addr] = PhysicalPageState.INVALID

    def release_block(self, block: int) -> None:
        """Mark every page of an erased block free again."""
        for page in range(self.pages_per_block):
            addr = (block, page)
            if self._states[addr] is PhysicalPageState.LIVE:
                raise FTLError(
                    f"block {block} still holds live page {addr}; relocate first"
                )
            self._states[addr] = PhysicalPageState.FREE

    def live_pages_in_block(self, block: int) -> list[PhysAddr]:
        """Addresses of the block's pages holding current data."""
        return [
            (block, page)
            for page in range(self.pages_per_block)
            if self._states[(block, page)] is PhysicalPageState.LIVE
        ]

    def invalid_pages_in_block(self, block: int) -> int:
        """How many of the block's pages hold stale data."""
        return sum(
            1
            for page in range(self.pages_per_block)
            if self._states[(block, page)] is PhysicalPageState.INVALID
        )

    def mapped_count(self) -> int:
        """Number of logical pages currently holding data."""
        return len(self._forward)

    # -- durability hooks ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable capture of the mapping.

        Only the forward map and the invalid set are stored; LIVE states and
        the reverse map are implied by the forward map, and every remaining
        page is FREE.
        """
        return {
            "logical_pages": self.logical_pages,
            "forward": dict(self._forward),
            "invalid": [
                addr
                for addr, state in self._states.items()
                if state is PhysicalPageState.INVALID
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the mapping with a previously captured snapshot."""
        if state["logical_pages"] != self.logical_pages:
            raise FTLError(
                f"snapshot addresses {state['logical_pages']} logical pages, "
                f"mapping has {self.logical_pages}"
            )
        self._forward = {}
        self._reverse = {}
        for addr in self._states:
            self._states[addr] = PhysicalPageState.FREE
        for lpn, addr in state["forward"].items():
            addr = tuple(addr)
            self._forward[int(lpn)] = addr
            self._reverse[addr] = int(lpn)
            self._states[addr] = PhysicalPageState.LIVE
        for addr in state["invalid"]:
            self._states[tuple(addr)] = PhysicalPageState.INVALID
