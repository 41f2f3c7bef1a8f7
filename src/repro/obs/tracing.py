"""Span tracing: structured, nested start/stop/duration events.

``span("server.flush", batch=4)`` times a region and records one structured
event into the registry's trace ring buffer; nesting is tracked through a
per-registry stack so exported traces reconstruct the call tree
(``parent_id``).  Every span also feeds a ``span.<name>.seconds`` histogram,
so phase timings appear in the metrics dump without separate bookkeeping.

Trace context
-------------
Spans accept a ``trace_id`` keyword: the wire-level correlation token the
serving layer threads from :class:`~repro.server.client.StorageClient`
through admission, flush and fsync.  A span without an explicit id
inherits the nearest enclosing span's id, so one ``trace_id`` stitches a
whole request tree; :func:`new_trace_id` mints fresh 64-bit ids.

Head-based sampling
-------------------
``registry.trace_sample_every = N`` keeps every Nth *top-level* span and
drops the rest — the sampling decision is made once at the head, and every
child of an unsampled head is skipped wholesale (no events, no span
histograms), which is what bounds tracing cost on a busy server.  The
default (1) records everything.

Disabled-path cost is deliberately tiny: :func:`span` returns a shared
no-op context manager (no generator frame, no allocation beyond the attrs
dict at the call site).
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.obs.registry import TIME_BUCKETS, MetricsRegistry, get_registry

__all__ = ["new_trace_id", "span"]


def new_trace_id() -> int:
    """A fresh random 64-bit trace id (never 0, which means "untraced")."""
    while True:
        trace_id = int.from_bytes(os.urandom(8), "big")
        if trace_id:
            return trace_id


class _NullSpan:
    """Shared do-nothing context manager for disabled registries."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SuppressedSpan:
    """Span skipped by head-based sampling; keeps children suppressed too."""

    __slots__ = ("_registry",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def __enter__(self) -> None:
        self._registry._suppress_depth += 1
        return None

    def __exit__(self, *exc_info) -> bool:
        self._registry._suppress_depth -= 1
        return False


class _Span:
    """One live span; entering returns the (mutable) event dict."""

    __slots__ = ("_registry", "_name", "_event", "_start", "_trace_id")

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        attrs: dict[str, Any],
        trace_id: int | None = None,
    ) -> None:
        self._registry = registry
        self._name = name
        self._trace_id = trace_id
        self._event = {
            "name": name,
            "span_id": 0,
            "parent_id": None,
            "pid": os.getpid(),
            "ts": 0.0,
            "attrs": attrs,
        }

    def __enter__(self) -> dict[str, Any]:
        reg = self._registry
        event = self._event
        event["span_id"] = reg.next_span_id()
        trace_id = self._trace_id
        if reg._span_stack:
            event["parent_id"] = reg._span_stack[-1]
            if trace_id is None and reg._trace_stack:
                trace_id = reg._trace_stack[-1]  # inherit the enclosing trace
        if trace_id:
            event["trace_id"] = trace_id
        reg._span_stack.append(event["span_id"])
        reg._trace_stack.append(trace_id)
        event["ts"] = time.time()
        self._start = time.perf_counter()
        return event

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._start
        reg = self._registry
        event = self._event
        event["dur"] = duration
        if reg._span_stack and reg._span_stack[-1] == event["span_id"]:
            reg._span_stack.pop()
            if reg._trace_stack:
                reg._trace_stack.pop()
        reg.record_event(event)
        reg.histogram(f"span.{self._name}.seconds", TIME_BUCKETS).observe(
            duration
        )
        return False


def span(
    name: str,
    registry: MetricsRegistry | None = None,
    trace_id: int | None = None,
    **attrs,
):
    """Time a region; record one structured trace event with nesting.

    Use as ``with span("server.flush", batch=B) as event:`` — the
    yielded ``event`` dict is mutable, so callers can attach result attrs
    mid-span.  ``trace_id`` stamps the event with a wire-level correlation
    id (child spans inherit it).  When the registry is disabled this
    returns a shared no-op context manager and the block runs untimed;
    when head-based sampling skips the enclosing head span, the whole
    subtree is skipped the same way.
    """
    reg = registry if registry is not None else get_registry()
    if not reg.enabled:
        return _NULL_SPAN
    if reg._suppress_depth:
        return _SuppressedSpan(reg)
    if reg.trace_sample_every > 1 and not reg._span_stack:
        reg._head_spans += 1
        if reg._head_spans % reg.trace_sample_every != 1:
            return _SuppressedSpan(reg)
    return _Span(reg, name, attrs, trace_id=trace_id)
