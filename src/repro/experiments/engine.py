"""Batch-aware simulation entry point and scheme memo for every experiment.

Every sweep cell (Table I, Figs. 11-16, extensions) takes its scheme from
:func:`scheme_for` and runs it through :func:`simulate_lanes`, so the
``REPRO_LANES`` knob applies uniformly.  With
``lanes=1`` (the default) this is exactly the historical scalar
:class:`~repro.core.lifetime.LifetimeSimulator` run — same seed, same
numbers bit for bit.  With more lanes, the vectorized
:class:`~repro.core.lifetime.BatchLifetimeSimulator` runs ``lanes``
independently seeded pages in lockstep (lane ``i`` seeded ``seed + i``)
and pools their cycles, multiplying the sample size behind every reported
gain at far less than proportional wall-clock cost.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.coding.kernels import resolve_backend
from repro.core import (
    BatchLifetimeSimulator,
    LifetimeResult,
    LifetimeSimulator,
    RewritingScheme,
)
from repro.experiments.config import ExperimentConfig
from repro.core.factory import make_scheme
from repro.obs.tracing import span as _span

__all__ = [
    "clear_scheme_memo",
    "scheme_for",
    "simulate",
    "simulate_lanes",
]

#: Constructed schemes (and their Viterbi trellis/cost/gather tables) keyed
#: by ``(name, page_bits, kwargs, backend name)``.  Schemes are stateless
#: after construction — lane state is passed in and out of ``scheme.write``
#: — so sharing one instance across cells is determinism-safe, and repeated
#: cells for one configuration skip table construction entirely.
_SCHEME_MEMO: OrderedDict[tuple, RewritingScheme] = OrderedDict()
_SCHEME_MEMO_CAP = 64


def scheme_for(
    name: str, page_bits: int, kwargs: tuple = ()
) -> RewritingScheme:
    """A memoized scheme instance for ``(name, page_bits, kwargs)``.

    ``kwargs`` is the sorted ``tuple(sorted(d.items()))`` form a
    :class:`~repro.experiments.pool.SweepCell` carries.  A scheme binds
    its kernel backend when it is built, so the backend the environment
    resolves to now is part of the key.  Construction is wrapped in a
    ``sweep.scheme_build`` span so tests (and traces) can count how often
    tables are actually built versus reused.
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


def simulate_lanes(
    scheme: RewritingScheme, *, cycles: int, seed: int, lanes: int = 1
) -> LifetimeResult:
    """Run ``scheme``'s lifetime simulation with explicit knobs.

    This is the primitive sweep cells call (a cell carries the knobs, not
    a full config); :func:`simulate` is its config-driven wrapper.
    Returns a scalar-shaped
    :class:`~repro.core.lifetime.LifetimeResult` either way; batched runs
    pool all lanes' cycles into it.
    """
    if lanes <= 1:
        return LifetimeSimulator(scheme, seed=seed).run(cycles=cycles)
    batch = BatchLifetimeSimulator(scheme, lanes=lanes, seed=seed).run(
        cycles=cycles
    )
    return batch.merged()


def simulate(
    scheme: RewritingScheme, config: ExperimentConfig
) -> LifetimeResult:
    """Run ``scheme``'s lifetime simulation under ``config``."""
    return simulate_lanes(
        scheme, cycles=config.cycles, seed=config.seed, lanes=config.lanes
    )
