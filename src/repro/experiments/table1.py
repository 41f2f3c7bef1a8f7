"""Table I: rate, lifetime gain and aggregate gain for every implementation."""

from __future__ import annotations

from repro.core import SchemeSummary
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import simulate

__all__ = ["TABLE1_SCHEMES", "run_table1", "format_table1"]

#: The paper's Table I rows, in order.
TABLE1_SCHEMES = (
    "uncoded",
    "redundancy-1/2",
    "wom",
    "mfc-1/2-1bpc",
    "mfc-1/2-2bpc",
    "mfc-2/3",
    "mfc-3/4",
    "mfc-4/5",
)


def run_table1(
    config: ExperimentConfig | None = None,
    schemes: tuple[str, ...] = TABLE1_SCHEMES,
) -> list[SchemeSummary]:
    """Simulate every Table I scheme and return its measured rows.

    Uncoded and redundancy are exact by construction, but we simulate them
    anyway — they are one-line sanity checks of the whole pipeline.
    """
    config = config or ExperimentConfig.from_env()
    return [SchemeSummary.from_result(simulate(name, config)) for name in schemes]


def format_table1(rows: list[SchemeSummary]) -> str:
    """Render rows the way the paper's Table I presents them."""
    header = f"{'implementation':<18}{'rate':>8}{'lifetime':>10}{'aggregate':>11}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<18}{row.rate:>8.4f}{row.lifetime_gain:>10.2f}"
            f"{row.aggregate_gain:>11.2f}"
        )
    return "\n".join(lines)
