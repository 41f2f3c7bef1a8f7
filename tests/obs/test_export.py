"""Unit tests for the Prometheus and JSON-lines exporters."""

from __future__ import annotations

import json
import re

import pytest

from repro.obs.export import to_prometheus, trace_lines, write_metrics, write_trace
from repro.obs.registry import TIME_BUCKETS, MetricsRegistry
from repro.obs.tracing import span


@pytest.fixture
def registry() -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    registry.counter("viterbi.searches").inc(3)
    registry.gauge("flash.max_block_erases").set(12)
    hist = registry.histogram("scheme.bits_programmed_per_write", (4.0, 16.0))
    hist.observe(2)
    hist.observe(100)
    with span("coset.encode_batch", registry=registry, lanes=2):
        pass
    return registry


class TestPrometheus:
    def test_counter_and_gauge_lines(self, registry):
        text = to_prometheus(registry)
        assert "# TYPE repro_viterbi_searches counter" in text
        assert "repro_viterbi_searches 3" in text
        assert "# TYPE repro_flash_max_block_erases gauge" in text
        assert "repro_flash_max_block_erases 12" in text

    def test_histogram_series_are_cumulative(self, registry):
        text = to_prometheus(registry)
        assert 'repro_scheme_bits_programmed_per_write_bucket{le="4"} 1' in text
        assert 'repro_scheme_bits_programmed_per_write_bucket{le="16"} 1' in text
        assert 'repro_scheme_bits_programmed_per_write_bucket{le="+Inf"} 2' in text
        assert "repro_scheme_bits_programmed_per_write_sum 102" in text
        assert "repro_scheme_bits_programmed_per_write_count 2" in text

    def test_names_are_sanitized(self, registry):
        registry.counter("weird-name.with/slash").inc()
        text = to_prometheus(registry)
        assert "repro_weird_name_with_slash 1" in text

    def test_accepts_snapshot_and_rejects_junk(self, registry):
        snap = registry.snapshot()
        assert to_prometheus(snap) == to_prometheus(registry)
        with pytest.raises(TypeError):
            to_prometheus(42)

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry(enabled=True)) == ""


class TestTenantLabels:
    @pytest.fixture
    def tenants(self) -> MetricsRegistry:
        registry = MetricsRegistry(enabled=True)
        registry.counter("server.tenant0.requests").inc(8)
        registry.counter("server.tenant3.requests").inc(2)
        registry.counter("loadgen.tenant1.busy").inc(5)
        registry.histogram(
            "server.tenant0.latency_seconds", TIME_BUCKETS
        ).observe(0.001)
        return registry

    def test_flat_names_become_labelled_families(self, tenants):
        text = to_prometheus(tenants)
        assert 'repro_server_tenant_requests{tenant="0"} 8' in text
        assert 'repro_server_tenant_requests{tenant="3"} 2' in text
        assert 'repro_loadgen_tenant_busy{tenant="1"} 5' in text
        # One TYPE line per family, shared by all tenants.
        assert text.count("# TYPE repro_server_tenant_requests counter") == 1
        assert "repro_server_tenant0_requests" not in text
        assert "repro_server_tenant3_requests" not in text

    def test_histograms_carry_the_tenant_label_too(self, tenants):
        text = to_prometheus(tenants)
        assert (
            'repro_server_tenant_latency_seconds_bucket'
            '{le="1e-05",tenant="0"} 0' in text
        )
        assert 'repro_server_tenant_latency_seconds_count{tenant="0"} 1' in text

    def test_non_tenant_names_are_untouched(self, tenants):
        tenants.counter("server.requests").inc(10)
        text = to_prometheus(tenants)
        assert "repro_server_requests 10" in text
        assert 'repro_server_requests{' not in text


class TestStrictFormat:
    """Every emitted line must be valid Prometheus text exposition."""

    _SERIES = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
        r'(?:\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'  # first label
        r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'  # more labels
        r" (?:[0-9.e+-]+|\+Inf|-Inf|NaN)$"     # value
    )
    _TYPE = re.compile(
        r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge|histogram)$"
    )

    def _check(self, text: str) -> None:
        families = []
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                assert self._TYPE.match(line), line
                families.append(line.split()[2])
            else:
                assert self._SERIES.match(line), line
        # A family must not be TYPE-declared twice.
        assert len(families) == len(set(families))

    def test_mixed_registry_is_well_formed(self, registry):
        registry.counter("server.tenant0.requests").inc(4)
        registry.counter("server.tenant1.requests").inc(4)
        registry.gauge("durability.fsync_lag_seconds").set(1.5)
        self._check(to_prometheus(registry))

    def test_label_values_are_escaped(self):
        from repro.obs.export import _escape_label_value

        assert _escape_label_value('a"b') == 'a\\"b'
        assert _escape_label_value("a\\b") == "a\\\\b"
        assert _escape_label_value("a\nb") == "a\\nb"

    def test_zero_observation_histogram_renders_empty(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("server.request_seconds", TIME_BUCKETS)
        # Untouched instruments are filtered from the snapshot entirely.
        assert to_prometheus(registry) == ""


class TestTraceExport:
    def test_one_json_object_per_event(self, registry):
        lines = list(trace_lines(registry))
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["name"] == "coset.encode_batch"
        assert event["attrs"]["lanes"] == 2
        assert "dur" in event

    def test_write_files(self, registry, tmp_path):
        metrics_path = write_metrics(tmp_path / "out" / "metrics.prom", registry)
        trace_path = write_trace(tmp_path / "out" / "trace.jsonl", registry)
        assert "repro_viterbi_searches 3" in metrics_path.read_text()
        payload = trace_path.read_text().strip().splitlines()
        assert len(payload) == 1
        assert json.loads(payload[0])["name"] == "coset.encode_batch"
