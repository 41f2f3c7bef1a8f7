"""Exporters: Prometheus-style text dump and JSON-lines trace file.

The Prometheus format is the plain text exposition format (counters,
gauges, and histograms with ``_bucket``/``_sum``/``_count`` series), with
dotted instrument names flattened to underscores and prefixed ``repro_``.
The trace export is one JSON object per line — loadable with ``jq``, pandas
or any log pipeline.

Tenant labels
-------------
Per-tenant instruments are registered internally under flat dotted names
(``server.tenant3.requests``, ``loadgen.tenant0.busy``).  The
exporter converts them to proper Prometheus label sets — one
``repro_server_tenant_requests{tenant="3"}`` family per metric instead of
one family per tenant — so rollups can aggregate across tenants with
PromQL instead of regexes.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from repro.obs.registry import (
    MetricsRegistry,
    RegistrySnapshot,
    get_registry,
)

__all__ = [
    "to_prometheus",
    "trace_lines",
    "write_metrics",
    "write_trace",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Flat per-tenant instrument names: ``<layer>.tenant<N>.<rest>``.
_TENANT_RE = re.compile(r"^(server|loadgen)\.tenant(\d+)\.(.+)$")


def _metric_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_suffix(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _split_tenant(name: str) -> tuple[str, dict[str, str]]:
    """``server.tenant3.requests`` -> (``server.tenant.requests``, labels)."""
    match = _TENANT_RE.match(name)
    if match is None:
        return name, {}
    layer, tenant, rest = match.groups()
    return f"{layer}.tenant.{rest}", {"tenant": tenant}


def _as_snapshot(source) -> RegistrySnapshot:
    if isinstance(source, RegistrySnapshot):
        return source
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    if source is None:
        return get_registry().snapshot()
    raise TypeError(f"cannot export {type(source).__name__}")


def _group(names):
    """Group instrument names into (family, [(labels, name)]) series lists.

    Families keep first-seen order of the sorted flat names.
    """
    families: dict[str, list[tuple[dict[str, str], str]]] = {}
    for name in sorted(names):
        family, labels = _split_tenant(name)
        families.setdefault(family, []).append((labels, name))
    return families


def to_prometheus(
    source: MetricsRegistry | RegistrySnapshot | None = None,
) -> str:
    """Render a registry (default: the process-global one) as Prometheus text."""
    snap = _as_snapshot(source)
    lines: list[str] = []

    def emit_scalars(values: dict[str, float], kind: str) -> None:
        for family, series in _group(values).items():
            metric = _metric_name(family)
            lines.append(f"# TYPE {metric} {kind}")
            for labels, name in series:
                lines.append(
                    f"{metric}{_labels_suffix(labels)} "
                    f"{_format_value(values[name])}"
                )

    emit_scalars(snap.counters, "counter")
    emit_scalars(snap.gauges, "gauge")
    for family, series in _group(snap.histograms).items():
        metric = _metric_name(family)
        lines.append(f"# TYPE {metric} histogram")
        for labels, name in series:
            hist = snap.histograms[name]
            cumulative = 0
            for upper, count in zip(hist.buckets, hist.counts):
                cumulative += count
                bucket_labels = dict(labels, le=_format_value(upper))
                lines.append(
                    f"{metric}_bucket{_labels_suffix(bucket_labels)} "
                    f"{cumulative}"
                )
            lines.append(
                f"{metric}_bucket{_labels_suffix(dict(labels, le='+Inf'))} "
                f"{hist.count}"
            )
            suffix = _labels_suffix(labels)
            lines.append(f"{metric}_sum{suffix} {_format_value(hist.sum)}")
            lines.append(f"{metric}_count{suffix} {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def trace_lines(source: MetricsRegistry | RegistrySnapshot | None = None):
    """Yield one JSON line per recorded span event."""
    snap = _as_snapshot(source)
    for event in snap.events:
        yield json.dumps(event, sort_keys=True)


def write_metrics(
    path: str | Path,
    source: MetricsRegistry | RegistrySnapshot | None = None,
) -> Path:
    """Write the Prometheus text dump to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_prometheus(source))
    return path


def write_trace(
    path: str | Path,
    source: MetricsRegistry | RegistrySnapshot | None = None,
) -> Path:
    """Write the JSON-lines trace to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as stream:
        for line in trace_lines(source):
            stream.write(line + "\n")
    return path
