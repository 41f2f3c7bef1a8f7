"""The shape of one virtual cell."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, VCellError

__all__ = ["VCellSpec"]


@dataclass(frozen=True)
class VCellSpec:
    """Shape of a virtual cell.

    An ``L``-level v-cell is built from ``L-1`` bits of a single page
    (paper Figs. 6 and 7: 4 levels from 3 bits, 8 levels from 7 bits).
    The level of the cell is the number of set bits, so level increases are
    always single-page monotone bit sets — legal on any flash that supports
    program-without-erase.
    """

    levels: int = 4

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ConfigurationError("a v-cell needs at least 2 levels")

    @property
    def bits_per_cell(self) -> int:
        """Physical page bits consumed by one v-cell (``levels - 1``)."""
        return self.levels - 1

    @property
    def max_level(self) -> int:
        """The saturated level (``levels - 1``)."""
        return self.levels - 1

    def level_of_pattern(self, pattern: int) -> int:
        """Level encoded by a bit ``pattern`` (an int of ``bits_per_cell`` bits)."""
        if not 0 <= pattern < (1 << self.bits_per_cell):
            raise VCellError(
                f"pattern {pattern:#x} out of range for {self.bits_per_cell} bits"
            )
        return pattern.bit_count()

    def patterns_of_level(self, level: int) -> tuple[int, ...]:
        """All bit patterns that encode ``level`` (Fig. 6's multiple options)."""
        if not 0 <= level <= self.max_level:
            raise VCellError(f"level {level} out of range")
        return tuple(
            pattern
            for pattern in range(1 << self.bits_per_cell)
            if pattern.bit_count() == level
        )

    def reachable(self, pattern: int, target_pattern: int) -> bool:
        """Whether ``target_pattern`` can be programmed from ``pattern``.

        True exactly when the target's set bits are a superset of the
        current set bits (bits can only be set, never cleared).
        """
        return (pattern & target_pattern) == pattern

