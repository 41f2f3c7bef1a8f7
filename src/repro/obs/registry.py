"""Hierarchical metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the process-wide sink every instrumented layer publishes
into.  Instruments are named with dotted paths (``flash.page_programs``,
``sweep.cells_run``) so exports group naturally, and are *live objects*:
``counter(name)`` is get-or-create, so call sites can cache the handle once
and increment forever — :meth:`MetricsRegistry.reset` zeroes values in
place without invalidating handles.

Overhead discipline
-------------------
Telemetry is **off by default** (enable with ``REPRO_METRICS=1`` or the
CLIs' ``--metrics-out``/``--trace-out``).  Every mutating instrument method
first checks its registry's ``enabled`` flag, so a disabled registry costs
one attribute load and branch per call site.  The coding, v-cell, core and
FTL layers publish nothing at all: their per-layer timing is the
benchmark tracer's job (``benchmarks/e2e/tracer.py``).

Snapshots
---------
:meth:`MetricsRegistry.snapshot` captures all values (and trace events)
into a plain :class:`RegistrySnapshot`: what the exporters render, and what
:meth:`RegistrySnapshot.counter_deltas` subtracts to attribute a
cumulative registry to one experiment.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "RegistrySnapshot",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "is_enabled",
    "set_enabled",
]

#: Default histogram buckets for durations in seconds (spans).
TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0,
)

#: Default buckets for nonnegative integer quantities (bits, counts):
#: powers of four up to a 4 KB page's bit count and beyond.
VALUE_BUCKETS: tuple[float, ...] = tuple(float(4**k) for k in range(10))

#: Trace events retained per registry.  The store is a *ring buffer*: once
#: full, recording a new event evicts the oldest one (counted in
#: ``obs.events_dropped``), so a long-running server always holds the most
#: recent spans — exactly what the live ``/traces`` endpoint serves —
#: while memory stays bounded.
MAX_EVENTS = 200_000


def _env_enabled() -> bool:
    return os.environ.get("REPRO_METRICS", "0").lower() in (
        "1", "true", "yes", "on",
    )


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value: float = 0
        self._registry = registry

    def inc(self, amount: float = 1) -> None:
        if self._registry.enabled:
            self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value: float = 0
        self._registry = registry

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        if self._registry.enabled:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Picklable capture of one histogram's state."""

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Fixed-bucket quantile estimate (upper bound of the q-bucket)."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for upper, bucket_count in zip(self.buckets, self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                return min(upper, self.max)
        return self.max


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max and quantile estimates.

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket catches
    overflow.  Quantiles are bucket-resolution estimates — exactly what the
    Prometheus text format exports.
    """

    __slots__ = (
        "name", "buckets", "counts", "sum", "count", "min", "max", "_registry",
    )

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: tuple[float, ...] = VALUE_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._registry = registry

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        index = 0
        for upper in self.buckets:
            if value <= upper:
                break
            index += 1
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            buckets=self.buckets,
            # Fold the +inf overflow bucket into the capture as the last
            # finite-bucket list plus overflow count kept separately via
            # the trailing entry.
            counts=tuple(self.counts),
            sum=self.sum,
            count=self.count,
            min=self.min if self.count else 0.0,
            max=self.max if self.count else 0.0,
        )

    def quantile(self, q: float) -> float:
        return self.snapshot().quantile(q)


@dataclass(frozen=True)
class RegistrySnapshot:
    """Point-in-time capture of a whole registry."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)
    events: tuple[dict, ...] = ()

    def counter_deltas(self, earlier: "RegistrySnapshot") -> dict[str, float]:
        """Counter increments accumulated after ``earlier`` was captured."""
        deltas = {}
        for name, value in self.counters.items():
            delta = value - earlier.counters.get(name, 0)
            if delta:
                deltas[name] = delta
        return deltas


class MetricsRegistry:
    """One process's metric instruments plus its collected trace events."""

    def __init__(
        self, enabled: bool | None = None, max_events: int = MAX_EVENTS
    ) -> None:
        self.enabled = _env_enabled() if enabled is None else enabled
        self.max_events = max_events
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.events: deque[dict] = deque(maxlen=max_events)
        #: Guards the ring buffer: the serving layer records events from its
        #: device thread while the HTTP sidecar snapshots from the event
        #: loop thread.
        self._events_lock = threading.Lock()
        self._span_stack: list[int] = []
        self._trace_stack: list[int | None] = []
        self._next_span_id = 1
        #: Head-based sampling: keep every Nth *top-level* span (and its
        #: whole subtree).  1 records everything; see ``trace_sample_every``.
        self.trace_sample_every = 1
        self._head_spans = 0
        self._suppress_depth = 0

    # -- instruments (get-or-create; handles stay valid across reset) --------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name, self)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, self)
        return instrument

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, self, buckets if buckets is not None else VALUE_BUCKETS
            )
        return instrument

    # -- trace events ---------------------------------------------------------

    def record_event(self, event: dict) -> None:
        """Append one structured trace event to the ring buffer.

        Once the buffer holds ``max_events`` entries each new event evicts
        the oldest one; evictions are counted in ``obs.events_dropped`` so
        silent loss is visible in ``/metrics`` and the runner footer.
        """
        if not self.enabled:
            return
        with self._events_lock:
            if len(self.events) >= self.max_events:
                self.counter("obs.events_dropped").inc()
            self.events.append(event)

    def recent_events(
        self, limit: int | None = None, trace_id: int | None = None
    ) -> list[dict]:
        """The newest events (chronological), optionally trace-filtered.

        A trace filter matches events stamped with the id directly and
        batch-level spans (flush, fsync) whose ``attrs["trace_ids"]`` list
        contains it.
        """
        with self._events_lock:
            events = list(self.events)
        if trace_id is not None:
            events = [
                event for event in events
                if event.get("trace_id") == trace_id
                or trace_id in (event.get("attrs") or {}).get("trace_ids", ())
            ]
        if limit is not None and limit >= 0:
            events = events[-limit:] if limit else []
        return events

    def next_span_id(self) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id

    # -- snapshot / absorb / reset -------------------------------------------

    def snapshot(self, include_events: bool = True) -> RegistrySnapshot:
        """A picklable capture of everything collected so far."""
        if include_events:
            with self._events_lock:
                events = tuple(self.events)
        else:
            events = ()
        return RegistrySnapshot(
            counters={
                name: instrument.value
                for name, instrument in self._counters.items()
                if instrument.value
            },
            gauges={
                name: instrument.value
                for name, instrument in self._gauges.items()
                if instrument.value
            },
            histograms={
                name: instrument.snapshot()
                for name, instrument in self._histograms.items()
                if instrument.count
            },
            events=events,
        )

    def absorb(self, prefix: str, summary: dict[str, float]) -> None:
        """Add ``summary``'s values to the counters ``<prefix>.<key>``.

        This is how the stats dataclasses (``FlashStats``, ``FTLStats``,
        ``FaultCounters``, ``ServerStats``) reach the registry.  It adds
        what it is given: a finished run passes its totals once, a caller
        publishing from live objects passes what they gained since its
        previous call.  A disabled registry absorbs nothing.
        """
        if not self.enabled:
            return
        for key, value in summary.items():
            self.counter(f"{prefix}.{key}").inc(value)

    def reset(self) -> None:
        """Zero every instrument in place and clear events.

        Handles cached by call sites stay valid — only values reset.
        """
        for instrument in self._counters.values():
            instrument.value = 0
        for instrument in self._gauges.values():
            instrument.value = 0
        for instrument in self._histograms.values():
            instrument.counts = [0] * (len(instrument.buckets) + 1)
            instrument.sum = 0.0
            instrument.count = 0
            instrument.min = math.inf
            instrument.max = -math.inf
        with self._events_lock:
            self.events.clear()
        self._span_stack.clear()
        self._trace_stack.clear()
        self._next_span_id = 1
        self._head_spans = 0
        self._suppress_depth = 0


#: The permanent process-global registry.  It is never replaced (so module-
#: and instance-cached instrument handles can never go stale); tests and
#: workers toggle ``enabled`` and call ``reset()`` instead.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _DEFAULT


def is_enabled() -> bool:
    """Is the process-global registry collecting?"""
    return _DEFAULT.enabled


def set_enabled(enabled: bool) -> None:
    """Turn process-global collection on or off."""
    _DEFAULT.enabled = enabled


def counter(name: str) -> Counter:
    """Get-or-create a counter on the default registry."""
    return _DEFAULT.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return _DEFAULT.gauge(name)


def histogram(name: str, buckets: tuple[float, ...] | None = None) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return _DEFAULT.histogram(name, buckets)
