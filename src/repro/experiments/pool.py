"""Sweep cells: experiments as independent, cacheable units of simulation.

Every experiment driver (Table I, Figs. 1/11-16, extensions) decomposes
into independent *cells*, one per simulated scheme instance, and hands
the list to :func:`run_cells`.  A cell is the unit of determinism and of
caching: its seed is bound at decomposition time and it makes its scheme
by name, so its result depends only on its fields and the code, which is
what :func:`cell_key` hashes (see :mod:`repro.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import (
    ResultCache,
    code_fingerprint,
    fingerprinted_key,
    get_default_cache,
)
from repro.core import LifetimeResult
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import scheme_for, simulate_lanes
from repro.obs import registry as _metrics
from repro.obs.tracing import span as _span

__all__ = [
    "SweepCell",
    "SweepCellError",
    "cell_for",
    "cell_key",
    "run_cell",
    "run_cells",
]

_CELLS_RUN = _metrics.counter("sweep.cells_run")
_CELLS_CACHED = _metrics.counter("sweep.cells_cached")


class SweepCellError(ReproError):
    """A cell failed; the message names it and the (chained) cause."""


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of simulation work, built from primitives."""

    scheme: str
    page_bits: int
    cycles: int
    seed: int
    lanes: int = 1
    #: Extra ``make_scheme`` keyword arguments as sorted ``(name, value)``
    #: pairs (tuples hash; dicts don't).
    kwargs: tuple[tuple[str, object], ...] = ()


def cell_for(
    name: str,
    config: ExperimentConfig,
    page_bits: int | None = None,
    **kwargs,
) -> SweepCell:
    """A cell for ``name`` under ``config``, with optional overrides."""
    return SweepCell(
        scheme=name,
        page_bits=config.page_bits if page_bits is None else page_bits,
        cycles=config.cycles,
        seed=config.seed,
        lanes=config.lanes,
        kwargs=tuple(sorted(kwargs.items())),
    )


def cell_key(cell: SweepCell, fingerprint: str | None = None) -> str:
    """Content address of a cell's result (includes the code fingerprint).

    Callers keying many cells pass ``fingerprint`` explicitly so the
    package hash is computed once per sweep, not once per cell.
    """
    payload = {
        "kind": "lifetime-cell",
        "scheme": cell.scheme,
        "page_bits": cell.page_bits,
        "cycles": cell.cycles,
        "seed": cell.seed,
        "lanes": cell.lanes,
        "kwargs": [[key, value] for key, value in cell.kwargs],
    }
    return fingerprinted_key(payload, fingerprint)


def run_cell(cell: SweepCell) -> LifetimeResult:
    """Run one cell's lifetime simulation on a memoized scheme instance.

    A failure is re-raised as :class:`SweepCellError` naming the cell.
    """
    try:
        scheme = scheme_for(cell.scheme, cell.page_bits, cell.kwargs)
        with _span(
            "sweep.cell",
            scheme=cell.scheme,
            page_bits=cell.page_bits,
            lanes=cell.lanes,
            cycles=cell.cycles,
            seed=cell.seed,
        ):
            result = simulate_lanes(
                scheme, cycles=cell.cycles, seed=cell.seed, lanes=cell.lanes
            )
    except Exception as exc:
        raise SweepCellError(
            f"sweep cell failed (scheme={cell.scheme!r} "
            f"page_bits={cell.page_bits} cycles={cell.cycles} "
            f"seed={cell.seed} lanes={cell.lanes}): "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    _CELLS_RUN.inc()
    return result


def run_cells(
    cells: list[SweepCell],
    config: ExperimentConfig | None = None,
    *,
    cache: ResultCache | None | bool = None,
) -> list[LifetimeResult]:
    """Run cells in order, serving what the result cache already holds.

    ``cache=None`` uses the default cache when ``config.cache`` is set,
    ``cache=False`` disables it, and an explicit
    :class:`~repro.cache.ResultCache` is used as-is.  Each cell is keyed
    once per call: probe and store share the key.
    """
    config = config or ExperimentConfig.from_env()
    if cache is None:
        cache = get_default_cache() if config.cache else None
    elif cache is False:
        cache = None
    if cache is None:
        return [run_cell(cell) for cell in cells]
    fingerprint = code_fingerprint()
    keys = [cell_key(cell, fingerprint) for cell in cells]
    results: list = [cache.get(key) for key in keys]
    _CELLS_CACHED.inc(sum(hit is not None for hit in results))
    pending = [index for index, hit in enumerate(results) if hit is None]
    for index in pending:
        results[index] = run_cell(cells[index])
    for index in pending:
        cache.put(keys[index], results[index])
    return results


def shutdown() -> None:
    """Nothing to tear down: the sweep runs in this process.

    Kept for one caller, ``benchmarks/e2e/inprocess.py``, which only a
    benchmark PR may edit; that PR deletes this function.
    """
