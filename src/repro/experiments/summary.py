"""Structured per-experiment run summaries.

One structured summary dict per experiment, assembled from the metrics
registry (plus the cache's own stats), so the same numbers flow to the
human-readable footer line, the Prometheus dump, and any notebook that
wants them programmatically.

The summary is delta-based: the runner snapshots the registry before each
experiment and :func:`build_summary` reports only what that experiment
added, so a ``python -m repro.experiments all`` run gets per-experiment
attribution even though the registry is cumulative.
"""

from __future__ import annotations

from typing import Any

from repro.cache import CacheStats
from repro.obs import registry as _metrics
from repro.obs.registry import TIME_BUCKETS, RegistrySnapshot

__all__ = ["build_summary", "format_summary"]

#: Counter keys surfaced in the human-readable footer (everything else
#: stays available in ``summary["counters"]`` and the Prometheus dump).
_FOOTER_COUNTERS = (
    "sweep.cells_run",
    "sweep.cells_cached",
    "obs.events_dropped",
)


def build_summary(
    name: str,
    *,
    elapsed: float,
    lanes: int,
    cache_delta: CacheStats | None = None,
    cache_root: str | None = None,
    before: RegistrySnapshot | None = None,
) -> dict[str, Any]:
    """One experiment's structured summary (plain dict, JSON-friendly).

    ``before`` is the registry snapshot taken just before the experiment
    ran; counters are reported as deltas against it.  Also publishes
    ``experiment.runs`` / the ``experiment.seconds`` histogram into the
    registry so exports carry per-experiment wall time.
    """
    registry = _metrics.get_registry()
    registry.counter("experiment.runs").inc()
    registry.histogram("experiment.seconds", TIME_BUCKETS).observe(elapsed)
    summary: dict[str, Any] = {
        "experiment": name,
        "wall_seconds": elapsed,
        "lanes": lanes,
        "telemetry": registry.enabled,
    }
    if cache_delta is not None:
        summary["cache"] = {
            "hits": cache_delta.hits,
            "misses": cache_delta.misses,
            "stores": cache_delta.stores,
            "root": cache_root,
        }
    else:
        summary["cache"] = None
    summary["counters"] = {}
    if registry.enabled:
        now = registry.snapshot(include_events=False)
        summary["counters"] = (
            now.counter_deltas(before) if before is not None else dict(now.counters)
        )
    return summary


def format_summary(summary: dict[str, Any]) -> str:
    """The human-readable footer line, derived from the structured summary."""
    parts = [f"wall {summary['wall_seconds']:.2f}s"]
    cache = summary.get("cache")
    if cache is not None:
        note = f"cache: {cache['hits']} hits, {cache['misses']} misses"
        if cache.get("root"):
            note += f" ({cache['root']})"
        parts.append(note)
    else:
        parts.append("cache: disabled")
    counters = summary.get("counters") or {}
    counter_bits = [
        f"{key.split('.', 1)[1]} {int(counters[key])}"
        for key in _FOOTER_COUNTERS
        if counters.get(key)
    ]
    if counter_bits:
        parts.append(", ".join(counter_bits))
    return f"[{summary['experiment']}] " + ", ".join(parts)
