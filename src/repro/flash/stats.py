"""Operation counters for a flash chip."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FlashStats"]


@dataclass
class FlashStats:
    """Counts of physical operations performed on a chip.

    ``bits_programmed`` counts 0 -> 1 transitions actually committed, which
    approximates program energy and is useful when comparing how much charge
    different codes inject per host write.
    """

    page_reads: int = 0
    page_programs: int = 0
    program_failures: int = 0
    block_erases: int = 0
    bits_programmed: int = 0
    erases_per_block: dict[int, int] = field(default_factory=dict)

    def record_read(self) -> None:
        self.page_reads += 1

    def record_program(self, bits_set: int) -> None:
        self.page_programs += 1
        self.bits_programmed += int(bits_set)

    def record_program_failure(self) -> None:
        self.program_failures += 1

    def record_erase(self, block_index: int) -> None:
        self.block_erases += 1
        self.erases_per_block[block_index] = (
            self.erases_per_block.get(block_index, 0) + 1
        )

    @property
    def max_block_erases(self) -> int:
        """Highest erase count across blocks (the wear-leveling bottleneck)."""
        return max(self.erases_per_block.values(), default=0)

    def summary(self) -> dict[str, int]:
        """Flat summary suitable for printing or logging."""
        return {
            "page_reads": self.page_reads,
            "page_programs": self.page_programs,
            "program_failures": self.program_failures,
            "block_erases": self.block_erases,
            "bits_programmed": self.bits_programmed,
            "max_block_erases": self.max_block_erases,
        }

    def snapshot(self) -> "FlashStats":
        """An independent copy; two of them bracket a window's counts."""
        return FlashStats(
            page_reads=self.page_reads,
            page_programs=self.page_programs,
            program_failures=self.program_failures,
            block_erases=self.block_erases,
            bits_programmed=self.bits_programmed,
            erases_per_block=dict(self.erases_per_block),
        )
