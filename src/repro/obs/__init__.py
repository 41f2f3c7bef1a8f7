"""Unified telemetry: metrics registry, span tracing, exporters.

``repro.obs`` is the one observability surface of the runners: the device
run (its flash, FTL and fault stats), the server and its requests,
durability, the load generators, the cluster and the sweep cells publish
here.  The coding, v-cell, core and FTL layers publish nothing; the
benchmark tracer (``benchmarks/e2e/tracer.py``) times them.
Collection is **off by default**; enable it with ``REPRO_METRICS=1`` or
the CLIs' ``--metrics-out`` / ``--trace-out`` flags.

Quick tour::

    from repro import obs

    obs.set_enabled(True)
    obs.counter("my.counter").inc()
    with obs.span("my.phase", size=4096):
        ...
    print(obs.to_prometheus())            # metrics text dump
    obs.write_trace("trace.jsonl")        # structured span events

    before = obs.get_registry().snapshot()
    ...
    obs.get_registry().snapshot().counter_deltas(before)  # what "..." added

See ``docs/architecture.md`` ("Telemetry") for who counts what and who
publishes it when.
"""

from repro.obs.export import to_prometheus, trace_lines, write_metrics, write_trace
from repro.obs.http import ObsHttpServer
from repro.obs.registry import (
    TIME_BUCKETS,
    VALUE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    RegistrySnapshot,
    counter,
    gauge,
    get_registry,
    histogram,
    is_enabled,
    set_enabled,
)
from repro.obs.slo import SLOConfig, SLOStatus, SLOTracker
from repro.obs.tracing import new_trace_id, span

__all__ = [
    "TIME_BUCKETS",
    "VALUE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "ObsHttpServer",
    "RegistrySnapshot",
    "SLOConfig",
    "SLOStatus",
    "SLOTracker",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "is_enabled",
    "new_trace_id",
    "set_enabled",
    "span",
    "to_prometheus",
    "trace_lines",
    "write_metrics",
    "write_trace",
]
