"""Unit tests for span tracing."""

from __future__ import annotations

import os

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import span


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


class TestSpan:
    def test_records_start_stop_duration(self, registry):
        with span("work", registry=registry, lanes=4):
            pass
        assert len(registry.events) == 1
        event = registry.events[0]
        assert event["name"] == "work"
        assert event["attrs"] == {"lanes": 4}
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0
        assert event["ts"] > 0

    def test_nesting_links_parent_ids(self, registry):
        with span("outer", registry=registry):
            with span("inner", registry=registry):
                pass
        inner, outer = registry.events  # inner closes (records) first
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None

    def test_span_ids_are_unique(self, registry):
        for _ in range(3):
            with span("s", registry=registry):
                pass
        ids = [event["span_id"] for event in registry.events]
        assert len(set(ids)) == 3

    def test_yields_mutable_event_for_result_attrs(self, registry):
        with span("s", registry=registry) as event:
            event["attrs"]["moved"] = 7
        assert registry.events[0]["attrs"]["moved"] == 7

    def test_feeds_duration_histogram(self, registry):
        with span("viterbi.acs", registry=registry):
            pass
        hist = registry.histogram("span.viterbi.acs.seconds")
        assert hist.count == 1

    def test_records_event_even_when_body_raises(self, registry):
        with pytest.raises(RuntimeError):
            with span("s", registry=registry):
                raise RuntimeError("boom")
        assert len(registry.events) == 1
        assert not registry._span_stack  # stack unwound

    def test_disabled_registry_produces_zero_events(self):
        registry = MetricsRegistry(enabled=False)
        with span("s", registry=registry) as event:
            assert event is None
        assert len(registry.events) == 0
        assert registry.snapshot().histograms == {}
