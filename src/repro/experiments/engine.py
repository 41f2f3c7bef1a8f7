"""The one simulation entry point of every experiment, and its scheme memo.

Table I, Figs. 1 and 11-16 and the extensions call :func:`simulate` once
per simulated scheme instance, a *sweep cell*.  A cell's result depends
only on its arguments and the code: its seed comes from the config and it
makes its scheme by name.  With ``lanes=1`` (the default) a cell is
exactly the historical scalar
:class:`~repro.core.lifetime.LifetimeSimulator` run, bit for bit.  With
more lanes, the vectorized
:class:`~repro.core.lifetime.BatchLifetimeSimulator` runs ``lanes``
independently seeded pages in lockstep (lane ``i`` seeded ``seed + i``)
and pools their cycles, multiplying the sample size behind every reported
gain at far less than proportional wall-clock cost.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.coding.kernels import resolve_backend
from repro.core import (
    MFC_VARIANTS,
    BatchLifetimeSimulator,
    LifetimeResult,
    LifetimeSimulator,
    PageCodeScheme,
)
from repro.core.factory import make_scheme
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.obs import registry as _metrics
from repro.obs.tracing import span as _span

__all__ = [
    "SweepError",
    "clear_scheme_memo",
    "scheme_for",
    "simulate",
]

_CELLS_RUN = _metrics.counter("sweep.cells_run")

#: Constructed schemes (and their Viterbi trellis/cost/gather tables) keyed
#: by ``(name, page_bits, kwargs, backend name)``.  Schemes are stateless
#: after construction — lane state is passed in and out of ``scheme.write``
#: — so sharing one instance across cells is determinism-safe, and repeated
#: cells for one configuration skip table construction entirely.
_SCHEME_MEMO: OrderedDict[tuple, PageCodeScheme] = OrderedDict()
_SCHEME_MEMO_CAP = 64


class SweepError(ReproError):
    """A sweep cell failed; the message names it and the (chained) cause."""


def scheme_for(
    name: str, page_bits: int, kwargs: tuple = ()
) -> PageCodeScheme:
    """A memoized scheme instance for ``(name, page_bits, kwargs)``.

    ``kwargs`` is the sorted ``tuple(sorted(d.items()))`` form of the
    ``make_scheme`` keyword arguments.  A scheme binds its kernel backend
    when it is built, so the backend the environment resolves to now is
    part of the key.  Construction is wrapped in a ``sweep.scheme_build``
    span so tests (and traces) can count how often tables are actually
    built versus reused.
    """
    key = (name, page_bits, kwargs, resolve_backend().name)
    scheme = _SCHEME_MEMO.get(key)
    if scheme is not None:
        _SCHEME_MEMO.move_to_end(key)
        return scheme
    with _span("sweep.scheme_build", scheme=name, page_bits=page_bits):
        scheme = make_scheme(name, page_bits, **dict(kwargs))
    _SCHEME_MEMO[key] = scheme
    while len(_SCHEME_MEMO) > _SCHEME_MEMO_CAP:
        _SCHEME_MEMO.popitem(last=False)
    return scheme


def clear_scheme_memo() -> None:
    """Drop all memoized schemes (tests and benchmarks start cold)."""
    _SCHEME_MEMO.clear()


def simulate(
    name: str,
    config: ExperimentConfig,
    *,
    page_bits: int | None = None,
    **kwargs,
) -> LifetimeResult:
    """Run one sweep cell: scheme ``name``'s lifetime under ``config``.

    ``page_bits`` overrides ``config.page_bits``, and ``kwargs`` go to
    ``make_scheme``.  An :data:`~repro.core.MFC_VARIANTS` name is built at
    ``config.constraint_length`` unless ``kwargs`` names one.  Returns the
    simulator's :class:`~repro.core.lifetime.LifetimeResult`, whose
    ``writes_per_cycle`` pools every lane's cycles.  A failure is re-raised
    as :class:`SweepError` naming the cell.
    """
    if name.lower() in MFC_VARIANTS:
        kwargs.setdefault("constraint_length", config.constraint_length)
    if page_bits is None:
        page_bits = config.page_bits
    cycles, seed, lanes = config.cycles, config.seed, config.lanes
    try:
        scheme = scheme_for(name, page_bits, tuple(sorted(kwargs.items())))
        with _span(
            "sweep.cell",
            scheme=name,
            page_bits=page_bits,
            lanes=lanes,
            cycles=cycles,
            seed=seed,
        ):
            if lanes == 1:
                result = LifetimeSimulator(scheme, seed=seed).run(cycles=cycles)
            else:
                result = BatchLifetimeSimulator(
                    scheme, lanes=lanes, seed=seed
                ).run(cycles=cycles)
    except Exception as exc:
        raise SweepError(
            f"sweep cell failed (scheme={name!r} page_bits={page_bits} "
            f"cycles={cycles} seed={seed} lanes={lanes}): "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    _CELLS_RUN.inc()
    return result
