"""The central workload registry: one source of truth for every harness.

One literal name -> factory table and the :func:`make_workload`
constructor every harness builds its stream from.  The four distribution
classes are their own factories and also form :data:`WORKLOADS`, the
``--workload`` choices; ``trace``, ``phased`` and ``mixed`` are
composites built from parameters.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.workload.base import Workload
from repro.workload.mixed import MixedWorkload, derive_child_seed
from repro.workload.phased import PhasedWorkload
from repro.workload.synthetic import (
    HotColdWorkload,
    SequentialWorkload,
    UniformWorkload,
    ZipfWorkload,
)
from repro.workload.trace import TraceReplayWorkload, load_csv_trace

__all__ = ["WORKLOADS", "make_workload", "tenant_streams"]

#: The four distribution classes: what ``--workload`` offers.
WORKLOADS: dict[str, type[Workload]] = {
    "uniform": UniformWorkload,
    "hotcold": HotColdWorkload,
    "zipf": ZipfWorkload,
    "sequential": SequentialWorkload,
}


def make_workload(
    name: str, logical_pages: int, seed: int = 0, **kwargs
) -> Workload:
    """Instantiate a workload by name; ``factory(logical_pages, seed=, ...)``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r} (have: {sorted(_FACTORIES)})"
        ) from None
    try:
        return factory(logical_pages, seed=seed, **kwargs)
    except TypeError as exc:
        # Bad parameter names/arity are configuration mistakes, not bugs.
        raise ConfigurationError(f"workload {name!r}: {exc}") from None


def tenant_streams(
    name: str,
    logical_pages: int,
    seed: int = 0,
    tenants: int = 1,
    **kwargs,
) -> list[Workload]:
    """One child stream per tenant, with the shared seed derivation.

    Both :class:`~repro.workload.mixed.MixedWorkload` (simulator-side
    interleave) and the load generator's per-tenant clients build their
    streams here, so tenant ``t`` sees the identical op sequence in every
    harness.
    """
    if tenants < 1:
        raise ConfigurationError("need at least one tenant")
    return [
        make_workload(
            name, logical_pages,
            seed=derive_child_seed(seed, tenant), tenant=tenant, **kwargs,
        )
        for tenant in range(tenants)
    ]


# -- composite factories ------------------------------------------------------


def _make_trace(
    logical_pages: int,
    seed: int = 0,
    tenant: int = 0,
    path: str | None = None,
    page_bytes: int = 4096,
) -> Workload:
    if not path:
        raise ConfigurationError("trace workloads need a path parameter")
    return TraceReplayWorkload(
        logical_pages, load_csv_trace(path), page_bytes=page_bytes,
        seed=seed, tenant=tenant,
    )


def _make_phased(
    logical_pages: int,
    seed: int = 0,
    tenant: int = 0,
    schedule: tuple[tuple[str, int], ...] = (),
    **child_kwargs,
) -> Workload:
    if not schedule:
        raise ConfigurationError(
            "phased workloads need a schedule of (name, length) phases"
        )
    phases = [
        (
            int(length),
            make_workload(
                child, logical_pages,
                seed=derive_child_seed(seed, index), tenant=tenant,
                **child_kwargs,
            ),
        )
        for index, (child, length) in enumerate(schedule)
    ]
    return PhasedWorkload(logical_pages, phases, seed=seed, tenant=tenant)


def _make_mixed(
    logical_pages: int,
    seed: int = 0,
    tenant: int = 0,
    base: str = "uniform",
    tenants: int = 2,
    weights: tuple[float, ...] | None = None,
    **base_kwargs,
) -> Workload:
    children = tenant_streams(
        base, logical_pages, seed=seed, tenants=tenants, **base_kwargs
    )
    return MixedWorkload(
        logical_pages, children,
        weights=list(weights) if weights is not None else None, seed=seed,
    )


_FACTORIES: dict[str, Callable[..., Workload]] = {
    **WORKLOADS,
    "trace": _make_trace,
    "phased": _make_phased,
    "mixed": _make_mixed,
}
