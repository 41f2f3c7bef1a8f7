"""Extension experiment: schemes beyond the paper's Table I.

A Table I-style comparison of the library's beyond-paper implementations —
ECC-integrated MFC (Section V.B realized), MFC on 8-level v-cells (the
conclusion's co-design direction), rank modulation on tall v-cells (prior
work [1] made runnable on real flash), and plain waterfall (the no-coset
anchor).
"""

from __future__ import annotations

from repro.core import SchemeSummary
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import simulate

__all__ = ["run_extensions", "format_extensions"]


def run_extensions(config: ExperimentConfig | None = None) -> list[SchemeSummary]:
    """Lifetime/rate/aggregate rows for the extension schemes."""
    config = config or ExperimentConfig.from_env()
    k = min(config.constraint_length, 4)  # ECC interleaving likes small K
    results = [
        simulate("waterfall", config),
        simulate("mfc-1/2-1bpc", config),
        simulate("mfc-1/2-1bpc", config, vcell_levels=8),
        simulate("mfc-ecc", config, constraint_length=k),
        simulate("rank-modulation", config),
    ]
    return [SchemeSummary.from_result(result) for result in results]


def format_extensions(rows: list[SchemeSummary]) -> str:
    """Render the extension rows in the Table I style."""
    header = (
        f"{'extension scheme':<22}{'rate':>8}{'lifetime':>10}{'aggregate':>11}"
    )
    lines = [
        "Extensions beyond the paper's Table I",
        header,
        "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row.name:<22}{row.rate:>8.4f}{row.lifetime_gain:>10.2f}"
            f"{row.aggregate_gain:>11.2f}"
        )
    return "\n".join(lines)
