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
    "scheme.writes",
    "viterbi.searches",
    "obs.events_dropped",
)

#: (footer label, histogram name) pairs whose p50/p99 deltas land in
#: ``summary["latencies"]`` and the footer line.
_FOOTER_HISTOGRAMS = (
    ("encode", "span.coset.encode_batch.seconds"),
    ("flush", "span.server.flush.seconds"),
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
    ran; counters and the bits-per-write histogram are reported as deltas
    against it.  Also publishes ``experiment.runs`` / the
    ``experiment.seconds`` histogram into the registry so exports carry
    per-experiment wall time.
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
    if registry.enabled:
        now = registry.snapshot(include_events=False)
        summary["counters"] = (
            now.counter_deltas(before) if before is not None else dict(now.counters)
        )
        bits = now.histograms.get("scheme.bits_programmed_per_write")
        if bits is not None and before is not None:
            earlier = before.histograms.get("scheme.bits_programmed_per_write")
            if earlier is not None:
                bits = bits.since(earlier)
        if bits is not None and bits.count:
            summary["bits_per_write"] = {
                "count": bits.count,
                "mean": bits.mean,
                "p50": bits.quantile(0.5),
                "p99": bits.quantile(0.99),
                "max": bits.max,
            }
        else:
            summary["bits_per_write"] = None
        latencies: dict[str, dict[str, float]] = {}
        for label, hist_name in _FOOTER_HISTOGRAMS:
            hist = now.histograms.get(hist_name)
            if hist is not None and before is not None:
                earlier = before.histograms.get(hist_name)
                if earlier is not None:
                    hist = hist.since(earlier)
            if hist is not None and hist.count:
                latencies[label] = {
                    "count": hist.count,
                    "p50": hist.quantile(0.5),
                    "p99": hist.quantile(0.99),
                }
        summary["latencies"] = latencies
    else:
        summary["counters"] = {}
        summary["bits_per_write"] = None
        summary["latencies"] = {}
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
    bits = summary.get("bits_per_write")
    if bits:
        parts.append(
            f"bits/write p50 {bits['p50']:.0f} p99 {bits['p99']:.0f} "
            f"(n={bits['count']})"
        )
    for label, quantiles in (summary.get("latencies") or {}).items():
        parts.append(
            f"{label} p50 {quantiles['p50'] * 1e3:.2f}ms "
            f"p99 {quantiles['p99'] * 1e3:.2f}ms"
        )
    return f"[{summary['experiment']}] " + ", ".join(parts)
