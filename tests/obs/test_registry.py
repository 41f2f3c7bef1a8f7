"""Unit tests for the metrics registry core."""

from __future__ import annotations

import pickle

import pytest

from repro.obs import registry as obs


@pytest.fixture
def registry() -> obs.MetricsRegistry:
    return obs.MetricsRegistry(enabled=True)


class TestCounter:
    def test_inc_accumulates(self, registry):
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_disabled_registry_ignores_inc(self):
        registry = obs.MetricsRegistry(enabled=False)
        counter = registry.counter("a")
        counter.inc(10)
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 8

    def test_disabled_registry_ignores_set(self):
        registry = obs.MetricsRegistry(enabled=False)
        gauge = registry.gauge("g")
        gauge.set(3)
        assert gauge.value == 0


class TestHistogram:
    def test_observe_and_stats(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 2, 5, 50):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(57.5)
        assert hist.min == 0.5
        assert hist.max == 50
        assert hist.counts == [1, 2, 1, 0]

    def test_overflow_bucket(self, registry):
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(99)
        assert hist.counts == [0, 1]

    def test_quantile_estimates(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 4.0, 16.0, 100.0))
        for value in (1, 2, 3, 4, 80):
            hist.observe(value)
        assert hist.quantile(0.5) == 4.0
        assert hist.quantile(0.99) == 80  # capped at observed max
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_rejects_unsorted_buckets(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(2.0, 1.0))

    def test_disabled_registry_ignores_observe(self):
        registry = obs.MetricsRegistry(enabled=False)
        hist = registry.histogram("h")
        hist.observe(1)
        assert hist.count == 0


class TestSnapshotMerge:
    def test_snapshot_is_picklable(self, registry):
        registry.counter("c").inc(3)
        registry.gauge("g").set(2)
        registry.histogram("h").observe(5)
        registry.record_event({"name": "s", "dur": 0.1})
        snap = registry.snapshot()
        restored = pickle.loads(pickle.dumps(snap))
        assert restored.counters == {"c": 3}
        assert restored.gauges == {"g": 2}
        assert restored.histograms["h"].count == 1
        assert len(restored.events) == 1

    def test_counter_deltas(self, registry):
        registry.counter("c").inc(3)
        before = registry.snapshot()
        registry.counter("c").inc(4)
        registry.counter("d").inc(1)
        deltas = registry.snapshot().counter_deltas(before)
        assert deltas == {"c": 4, "d": 1}


class TestResetAndEvents:
    def test_reset_zeroes_in_place_keeping_handles(self, registry):
        counter = registry.counter("c")
        hist = registry.histogram("h")
        counter.inc(5)
        hist.observe(2)
        registry.reset()
        assert counter.value == 0
        assert hist.count == 0
        counter.inc()  # the old handle still publishes
        assert registry.counter("c").value == 1

    def test_event_cap_counts_drops(self):
        registry = obs.MetricsRegistry(enabled=True, max_events=2)
        for index in range(4):
            registry.record_event({"name": f"e{index}"})
        assert len(registry.events) == 2
        assert registry.counter("obs.events_dropped").value == 2

    def test_absorb_publishes_prefixed_counters(self, registry):
        registry.absorb("ftl", {"host_writes": 9, "gc_runs": 2})
        assert registry.counter("ftl.host_writes").value == 9
        assert registry.counter("ftl.gc_runs").value == 2

    def test_ring_buffer_evicts_oldest_first(self):
        registry = obs.MetricsRegistry(enabled=True, max_events=3)
        for index in range(5):
            registry.record_event({"name": f"e{index}"})
        # FIFO eviction: the two oldest events fell off the front.
        assert [event["name"] for event in registry.events] == [
            "e2", "e3", "e4",
        ]

    def test_recent_events_limit_and_trace_filter(self, registry):
        registry.record_event({"name": "a", "trace_id": 1})
        registry.record_event({"name": "b", "trace_id": 2})
        registry.record_event({"name": "c", "attrs": {"trace_ids": [1, 3]}})
        registry.record_event({"name": "d"})
        assert [e["name"] for e in registry.recent_events(limit=2)] == [
            "c", "d",
        ]
        # Direct trace_id matches and batch-attr containment both count.
        assert [e["name"] for e in registry.recent_events(trace_id=1)] == [
            "a", "c",
        ]
        assert registry.recent_events(trace_id=9) == []



class TestDefaultRegistry:
    def test_module_helpers_hit_the_default_registry(self):
        obs.set_enabled(True)
        obs.counter("t.helper").inc(2)
        assert obs.get_registry().counter("t.helper").value == 2
        assert obs.is_enabled()

    def test_default_registry_is_permanent(self):
        first = obs.get_registry()
        first.reset()
        assert obs.get_registry() is first
