"""Summary rows in the shape of the paper's Table I."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lifetime import LifetimeResult, LifetimeSimulator
from repro.core.scheme import PageCodeScheme

__all__ = ["SchemeSummary", "summarize"]


@dataclass(frozen=True)
class SchemeSummary:
    """One Table I row: implementation, rate, lifetime gain, aggregate gain."""

    name: str
    rate: float
    lifetime_gain: float
    aggregate_gain: float

    @classmethod
    def from_result(cls, result: LifetimeResult) -> "SchemeSummary":
        return cls(
            name=result.scheme_name,
            rate=result.rate,
            lifetime_gain=result.lifetime_gain,
            aggregate_gain=result.aggregate_gain,
        )

    @classmethod
    def analytic(cls, name: str, rate: float, lifetime_gain: float) -> "SchemeSummary":
        """A row known in closed form (uncoded, redundancy)."""
        return cls(
            name=name,
            rate=rate,
            lifetime_gain=lifetime_gain,
            aggregate_gain=rate * lifetime_gain,
        )

    def as_row(self) -> tuple[str, str, str, str]:
        return (
            self.name,
            f"{self.rate:.4f}",
            f"{self.lifetime_gain:.2f}",
            f"{self.aggregate_gain:.2f}",
        )


def summarize(
    scheme: PageCodeScheme, cycles: int = 5, seed: int = 0
) -> SchemeSummary:
    """Run a lifetime simulation and condense it to a Table I row."""
    result = LifetimeSimulator(scheme, seed=seed).run(cycles=cycles)
    return SchemeSummary.from_result(result)
