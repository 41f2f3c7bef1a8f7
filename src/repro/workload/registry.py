"""The central workload registry: one source of truth for every harness.

Mirrors the scheme registry's shape: factories registered by name, a
``make_workload`` constructor, and a frozen :class:`WorkloadSpec` that
names one workload + parameter set as a hashable value — the thing a CLI
flag parses into and every harness builds its stream from.  This replaces
the two hand-maintained ``WORKLOADS`` dicts the simulator CLI and the
server load generator used to keep in (imperfect) sync.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.workload.trace import workload_from_trace

__all__ = [
    "WORKLOADS",
    "WorkloadSpec",
    "make_workload",
    "register_workload",
    "tenant_streams",
    "workload_names",
]

#: The four distribution classes, by their historical names.  Kept as a
#: plain name -> class mapping for backward compatibility (CLI ``choices``
#: lists and callers that instantiate classes directly); the full factory
#: registry below also covers trace/phased/mixed composites.
WORKLOADS: dict[str, type[Workload]] = {
    "uniform": UniformWorkload,
    "hotcold": HotColdWorkload,
    "zipf": ZipfWorkload,
    "sequential": SequentialWorkload,
}

_FACTORIES: dict[str, Callable[..., Workload]] = dict(WORKLOADS)


def register_workload(name: str, factory: Callable[..., Workload]) -> None:
    """Register a workload factory; ``factory(logical_pages, seed=, ...)``."""
    if name in _FACTORIES:
        raise ConfigurationError(f"workload {name!r} is already registered")
    _FACTORIES[name] = factory


def workload_names() -> list[str]:
    """Every registered workload name (composites included)."""
    return sorted(_FACTORIES)


def make_workload(
    name: str, logical_pages: int, seed: int = 0, **kwargs
) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r} (have: {workload_names()})"
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
    return workload_from_trace(
        path, logical_pages, seed=seed, tenant=tenant, page_bytes=page_bytes
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


register_workload("trace", _make_trace)
register_workload("phased", _make_phased)
register_workload("mixed", _make_mixed)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload, fully specified: registry name + parameter pairs.

    Frozen and built from primitives only, so specs hash and compare by
    value.  ``params`` is a
    sorted tuple of ``(name, value)`` pairs (the same idiom sweep cells
    use for scheme kwargs).
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params) -> "WorkloadSpec":
        return cls(name, tuple(sorted(params.items())))

    def build(
        self, logical_pages: int, seed: int = 0, tenant: int = 0
    ) -> Workload:
        """Instantiate the spec's stream for one harness run."""
        return make_workload(
            self.name, logical_pages, seed=seed, tenant=tenant,
            **dict(self.params),
        )

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}({inner})"
