"""The paper's rewriting FTL (Fig. 5): coding modules inside the FTL.

A :class:`RewritingFTL` pairs each logical page with a rewriting scheme.
Host updates are first attempted *in place* with program-without-erase; only
when the page code reports :class:`~repro.errors.UnwritableError` does the
FTL fall back to the classic out-of-place path (new page + invalidate old).
With MFC-1/2-1BPC that turns ~12 host writes into one page relocation,
which is exactly how the lifetime gain reaches the device level.

None of this is visible to the host: the FTL simply exposes smaller logical
pages (``scheme.dataword_bits`` instead of ``page_bits`` — the rate cost).
"""

from __future__ import annotations

import numpy as np

from repro.core.scheme import PageCodeScheme
from repro.errors import (
    BlockWornOutError,
    ConfigurationError,
    DecodingError,
    PartialProgramLimitError,
    ProgramFailedError,
    UnwritableError,
)
from repro.flash.chip import FlashChip
from repro.ftl.ftl import BasicFTL
from repro.ftl.wear_leveling import WearLevelingPolicy

__all__ = ["RewritingFTL"]


class RewritingFTL(BasicFTL):
    """A page-mapped FTL with a v-cell/coding stack between map and chip."""

    def __init__(
        self,
        chip: FlashChip,
        scheme: PageCodeScheme,
        logical_pages: int,
        wear_leveling: WearLevelingPolicy | None = None,
    ) -> None:
        if scheme.raw_bits != chip.geometry.page_bits:
            raise ConfigurationError(
                f"{scheme.name} does not operate on single "
                f"{chip.geometry.page_bits}-bit pages; the rewriting FTL "
                "needs a page-granularity scheme"
            )
        self.scheme = scheme
        #: Ahead-of-time encodes of the running ``write_batch``, by LPN: the
        #: page to program, or None where the scheme needs an erase first.
        self._encoded_ahead: dict[int, np.ndarray | None] = {}
        super().__init__(chip, logical_pages, wear_leveling=wear_leveling)

    @property
    def dataword_bits(self) -> int:
        """Host-visible bits per logical page (the scheme's rate cost)."""
        return self.scheme.dataword_bits

    def _store(self, data: np.ndarray) -> np.ndarray:
        return self.scheme.write(self.scheme.fresh_state(), data)

    def _load(self, raw: np.ndarray) -> np.ndarray:
        return self.scheme.read(raw)

    def _decode(self, raw: np.ndarray) -> tuple[np.ndarray, bool, bool]:
        """Decode with the scheme's error detection, when it has any.

        ECC-integrated schemes report uncorrectable damage explicitly, and
        a page is only clean with no error at all: scrub refreshes at the
        first *correctable* error, preventively.  Other schemes can at
        least convert a decoder blow-up into a "corrupt" verdict for the
        read-recovery ladder.
        """
        code = self.scheme.code
        if hasattr(code, "decode_with_report"):
            report = code.decode_with_report(raw)
            return report.data, report.detected_uncorrectable == 0, report.clean
        try:
            return self.scheme.read(raw), True, True
        except DecodingError:
            return np.zeros(self.dataword_bits, dtype=np.uint8), False, False

    # Not inherited: benchmarks/e2e/tracer.py wraps this class's own write.
    def write(self, lpn: int, data: np.ndarray) -> None:
        """Write a logical page: in-place PWE first, relocation as fallback."""
        self._write(lpn, self._checked_dataword(data))

    def _write(self, lpn: int, data: np.ndarray) -> None:
        """One checked host write: the body of :meth:`write` and
        :meth:`write_batch`, which share a span name and never call each
        other."""
        addr = self.mapping.lookup(lpn)
        if addr is None or not self._rewrite_in_place(lpn, addr, data):
            # mapping.map invalidates the old page only once the new
            # location is secured, so a full device never strands the
            # previous data.
            self._write_out_of_place(lpn, data, count_relocation=addr is not None)
        self.stats.host_writes += 1
        self._maybe_static_migration()

    def _rewrite_in_place(
        self, lpn: int, addr: tuple[int, int], data: np.ndarray
    ) -> bool:
        """Program-without-erase on ``lpn``'s page; False: it must relocate."""
        try:
            if lpn in self._encoded_ahead:
                encoded = self._encoded_ahead.pop(lpn)
                if encoded is None:
                    raise UnwritableError(f"logical page {lpn} needs an erase")
            else:
                # Read-modify-write uses the controller's precise internal
                # sensing; host reads stay on the noisy path.
                current = self.chip.read_page(*addr, noisy=False)
                encoded = self.scheme.write(current, data)
            self.chip.program_page(addr[0], addr[1], encoded)
        except (UnwritableError, PartialProgramLimitError, BlockWornOutError):
            # The code ran out of writable coset members or the chip's NOP
            # budget is spent.
            return False
        except ProgramFailedError as exc:
            # The chip refused the in-place program.  The page keeps its
            # previous (still-decodable) contents, so treat this like an
            # exhausted page: count it, retire the block on a permanent
            # defect, and relocate.
            self.stats.program_failures += 1
            if exc.permanent:
                self._retire_block(addr[0])
            return False
        self.stats.in_place_rewrites += 1
        return True

    def _write_out_of_place(
        self, lpn: int, data: np.ndarray, count_relocation: bool
    ) -> None:
        # Every remap (host relocation, GC, static migration, scrub) comes
        # through here, and a rewrite is only legal on the bits it was
        # computed from: forget what write_batch encoded for the old page.
        self._encoded_ahead.pop(lpn, None)
        super()._write_out_of_place(lpn, data, count_relocation)

    def write_batch(self, lpns, datawords: np.ndarray) -> None:
        """Write several logical pages in order, encoding them ahead.

        One ``scheme.write_batch`` call (a single lockstep Viterbi search
        for MFCs) encodes the first write to every mapped logical page
        against that page's current bits; each lane is then written as
        :meth:`write` would, using its page's encode if the page is still
        where it was.
        Encodes are keyed by LPN, not by physical address: within one batch
        a block can be erased and the same address handed out again.
        """
        data = self._checked_batch(lpns, datawords)
        lanes: dict[int, int] = {}  # mapped LPN -> lane of its first write
        pages = []
        for lane, lpn in enumerate(lpns):
            addr = self.mapping.lookup(lpn)
            if addr is not None and lpn not in lanes:
                lanes[lpn] = lane
                pages.append(self.chip.read_page(*addr, noisy=False))
        try:
            if lanes:
                encoded, writable = self.scheme.write_batch(
                    np.stack(pages), data[list(lanes.values())]
                )
                for lpn, page, ok in zip(lanes, encoded, writable):
                    self._encoded_ahead[lpn] = page if ok else None
            for lpn, lane in zip(lpns, data):
                self._write(lpn, lane)
        finally:
            self._encoded_ahead.clear()
