"""Pages of bits — the only program/read granularity real flash exposes."""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import PageProgramError, PartialProgramLimitError

__all__ = ["Page", "PageState"]


class PageState(enum.Enum):
    """Lifecycle state of a physical page.

    ``ERASED`` pages hold all-zero bits.  A page becomes ``PROGRAMMED`` on
    its first program operation and stays there (program-without-erase keeps
    re-programming it) until the containing block is erased.
    """

    ERASED = "erased"
    PROGRAMMED = "programmed"


class Page:
    """One physical flash page: a fixed-width array of bits.

    The page enforces the *bit-monotonicity* half of the flash interface:
    a program operation may only set bits (0 -> 1); clearing any bit requires
    erasing the whole block.  Cross-page physical constraints (which bit
    patterns correspond to legal cell-level transitions) are enforced by the
    owning :class:`~repro.flash.wordline.Wordline`.
    """

    __slots__ = ("page_bits", "_bits", "_state", "program_count",
                 "max_partial_programs")

    def __init__(
        self, page_bits: int, max_partial_programs: int | None = None
    ) -> None:
        self.page_bits = int(page_bits)
        self._bits = np.zeros(self.page_bits, dtype=np.uint8)
        self._state = PageState.ERASED
        self.program_count = 0
        self.max_partial_programs = max_partial_programs

    @property
    def state(self) -> PageState:
        return self._state

    @property
    def bits(self) -> np.ndarray:
        """Read-only view of the page's current bits."""
        view = self._bits.view()
        view.flags.writeable = False
        return view

    def read(self) -> np.ndarray:
        """Return a copy of the page's bits (a page read operation)."""
        return self._bits.copy()

    def validate_program(self, new_bits: np.ndarray) -> np.ndarray:
        """Check shape/values/monotonicity of a program; return the target bits.

        Raises
        ------
        PageProgramError
            If the buffer is the wrong size, contains non-binary values, or
            tries to clear a bit that is already programmed.
        """
        if (
            self.max_partial_programs is not None
            and self.program_count >= self.max_partial_programs
        ):
            raise PartialProgramLimitError(
                f"page already programmed {self.program_count} times "
                f"(NOP limit {self.max_partial_programs}); erase required"
            )
        target = np.asarray(new_bits)
        if target.shape != (self.page_bits,):
            raise PageProgramError(
                f"program buffer has shape {target.shape}, page holds "
                f"{self.page_bits} bits"
            )
        if target.dtype == np.uint8:
            binary = target.max(initial=0) <= 1
        else:  # before narrowing: as uint8, 256 is a 0, 257 a 1 and 0.9 a 0
            binary = ((target == 0) | (target == 1)).all()
        if not binary:
            raise PageProgramError("program buffer must contain only 0/1 values")
        target = target.astype(np.uint8, copy=False)
        cleared = self._bits > target
        if cleared.any():
            positions = np.flatnonzero(cleared)[:8]
            raise PageProgramError(
                "program would clear bit(s) at positions "
                f"{positions.tolist()}; bits can only be set (0 -> 1) "
                "without an erase"
            )
        return target

    def apply_program(self, target: np.ndarray) -> None:
        """Commit previously validated target bits to the page."""
        self._bits[:] = target
        self._state = PageState.PROGRAMMED
        self.program_count += 1

    def erase(self) -> None:
        """Reset the page to all zeros (called by the block erase)."""
        self._bits[:] = 0
        self._state = PageState.ERASED
        self.program_count = 0

    # -- durability hooks ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable capture of the page (bits packed for compactness)."""
        return {
            "bits": np.packbits(self._bits).tobytes(),
            "programmed": self._state is PageState.PROGRAMMED,
            "program_count": self.program_count,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the page with a previously captured snapshot."""
        self._bits[:] = np.unpackbits(
            np.frombuffer(state["bits"], dtype=np.uint8),
            count=self.page_bits,
        )
        self._state = (
            PageState.PROGRAMMED if state["programmed"] else PageState.ERASED
        )
        self.program_count = int(state["program_count"])
