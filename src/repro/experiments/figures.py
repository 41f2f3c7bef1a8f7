"""Data behind every figure in the paper's evaluation (Figs. 1, 11-16)."""

from __future__ import annotations

import numpy as np

from repro.core import (
    TradeoffRectangle,
    cost_to_achieve,
    rectangle_for,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import simulate
from repro.experiments.table1 import run_table1

__all__ = [
    "fig1_data",
    "fig11_data",
    "fig12_data",
    "fig13_data",
    "fig14_data",
    "fig15_data",
    "fig16_data",
    "format_rectangles",
    "format_fig13",
    "format_fig14",
    "format_fig15",
    "format_fig16",
]


def _rectangles(config, schemes) -> list[TradeoffRectangle]:
    return [rectangle_for(row) for row in run_table1(config, schemes=schemes)]


def fig1_data(config: ExperimentConfig | None = None) -> list[TradeoffRectangle]:
    """Fig. 1: baseline C@L, replication C/2@2L, a code near C/6@12L."""
    return _rectangles(config, ("uncoded", "redundancy-1/2", "mfc-1/2-1bpc"))


def fig11_data(config: ExperimentConfig | None = None) -> list[TradeoffRectangle]:
    """Fig. 11: MFCs against prior work at fixed raw capacity."""
    return _rectangles(
        config,
        ("uncoded", "redundancy-1/2", "wom", "mfc-1/2-1bpc", "mfc-1/2-2bpc"),
    )


def fig12_data(config: ExperimentConfig | None = None) -> list[TradeoffRectangle]:
    """Fig. 12: all five MFC implementations."""
    return _rectangles(
        config,
        ("mfc-1/2-1bpc", "mfc-1/2-2bpc", "mfc-2/3", "mfc-3/4", "mfc-4/5"),
    )


FIG13_SCHEMES = ("wom", "mfc-4/5", "mfc-1/2-1bpc", "redundancy-1/2")
FIG13_CAPACITY_GOALS = (0.25, 0.5, 1.0, 2.0)


def fig13_data(
    config: ExperimentConfig | None = None,
    lifetime_goal: float = 12.0,
    capacity_goals: tuple[float, ...] = FIG13_CAPACITY_GOALS,
) -> dict[str, list[tuple[float, float]]]:
    """Fig. 13: raw capacity needed for lifetime gain 12, per capacity goal.

    Returns ``{scheme: [(capacity_goal, raw_cost), ...]}``.
    """
    rows = {
        row.name: row for row in run_table1(config, schemes=FIG13_SCHEMES)
    }
    series: dict[str, list[tuple[float, float]]] = {}
    for name, row in rows.items():
        series[name] = [
            (goal, cost_to_achieve(row, lifetime_goal, capacity_goal=goal))
            for goal in capacity_goals
        ]
    return series


FIG14_SCHEMES = ("wom", "mfc-1/2-1bpc", "mfc-1/2-2bpc")


def fig14_data(
    config: ExperimentConfig | None = None,
    page_bytes_values: tuple[int, ...] | None = None,
) -> dict[str, list[tuple[int, float]]]:
    """Fig. 14: lifetime gain as a function of page size.

    Sweeps powers of two from 64 B up to the configured page size (at least
    1 KB).  Returns ``{scheme: [(page_bytes, lifetime_gain), ...]}``.
    """
    config = config or ExperimentConfig.from_env()
    if page_bytes_values is None:
        ceiling = max(1024, config.page_bytes)
        page_bytes_values = tuple(
            size
            for size in (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
            if size <= ceiling
        )
    series: dict[str, list[tuple[int, float]]] = {name: [] for name in FIG14_SCHEMES}
    for page_bytes in page_bytes_values:
        for name in FIG14_SCHEMES:
            result = simulate(name, config, page_bits=page_bytes * 8)
            series[name].append((page_bytes, result.lifetime_gain))
    return series


FIG15_SCHEMES = ("wom", "mfc-1/2-1bpc")


def fig15_data(
    config: ExperimentConfig | None = None,
) -> dict[str, dict[int, float]]:
    """Fig. 15: average fraction of cells incremented, by update number.

    Key 0 holds the overall average (the paper's rightmost bar).
    """
    config = config or ExperimentConfig.from_env()
    series = {}
    for name in FIG15_SCHEMES:
        result = simulate(name, config)
        data = dict(result.trace.increment_fraction_by_update())
        data[0] = result.trace.mean_increment_fraction()
        series[result.scheme_name] = data
    return series


def fig16_data(
    config: ExperimentConfig | None = None,
) -> dict[str, np.ndarray]:
    """Fig. 16: histogram of v-cell levels at erase time."""
    config = config or ExperimentConfig.from_env()
    return {
        (result := simulate(name, config)).scheme_name: (
            result.trace.level_histogram()
        )
        for name in FIG15_SCHEMES
    }


# -- formatting ----------------------------------------------------------------


def format_rectangles(rectangles: list[TradeoffRectangle], title: str) -> str:
    """Text rendering of a fixed-cost comparison figure (table + picture)."""
    from repro.experiments.ascii import render_rectangles

    header = (
        f"{'scheme':<18}{'lifetime gain':>14}{'capacity (xC)':>15}"
        f"{'aggregate':>11}"
    )
    lines = [title, header, "-" * len(header)]
    for rect in rectangles:
        lines.append(
            f"{rect.name:<18}{rect.lifetime_gain:>14.2f}"
            f"{rect.capacity_fraction:>15.4f}{rect.area:>11.2f}"
        )
    lines.append("")
    lines.append(render_rectangles(rectangles))
    return "\n".join(lines)


def format_fig13(series: dict[str, list[tuple[float, float]]]) -> str:
    goals = [goal for goal, _ in next(iter(series.values()))]
    header = f"{'scheme':<18}" + "".join(f"{f'C={g:g}':>10}" for g in goals)
    lines = [
        "Fig. 13: raw capacity (xC) for lifetime gain 12",
        header,
        "-" * len(header),
    ]
    for name, points in series.items():
        lines.append(
            f"{name:<18}" + "".join(f"{cost:>10.2f}" for _, cost in points)
        )
    return "\n".join(lines)


def format_fig14(series: dict[str, list[tuple[int, float]]]) -> str:
    sizes = [size for size, _ in next(iter(series.values()))]
    header = f"{'scheme':<18}" + "".join(f"{f'{s}B':>9}" for s in sizes)
    lines = ["Fig. 14: lifetime gain vs page size", header, "-" * len(header)]
    for name, points in series.items():
        lines.append(
            f"{name:<18}" + "".join(f"{gain:>9.2f}" for _, gain in points)
        )
    return "\n".join(lines)


def format_fig15(series: dict[str, dict[int, float]]) -> str:
    lines = ["Fig. 15: fraction of v-cells incremented per update"]
    for name, data in series.items():
        average = data.get(0, float("nan"))
        per_update = ", ".join(
            f"#{update}: {fraction * 100:.1f}%"
            for update, fraction in sorted(data.items())
            if update > 0
        )
        lines.append(f"  {name}: average {average * 100:.1f}%  [{per_update}]")
    return "\n".join(lines)


def format_fig16(series: dict[str, np.ndarray]) -> str:
    lines = ["Fig. 16: v-cell level histogram at erase time"]
    for name, histogram in series.items():
        cells = ", ".join(
            f"L{level}: {fraction * 100:.1f}%"
            for level, fraction in enumerate(histogram)
        )
        lines.append(f"  {name}: {cells}")
    return "\n".join(lines)
