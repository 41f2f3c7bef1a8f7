"""Tests for the console dashboard: parser, quantiles, frame rendering."""

from __future__ import annotations

import asyncio
import io
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.console import (
    Dashboard,
    parse_prometheus,
    quantile_from_buckets,
    watch,
)
from repro.obs.http import ObsHttpServer
from repro.obs.registry import TIME_BUCKETS, MetricsRegistry

SAMPLE = """\
# TYPE repro_server_requests counter
repro_server_requests 120
# TYPE repro_server_tenant_requests counter
repro_server_tenant_requests{tenant="0"} 80
repro_server_tenant_requests{tenant="1"} 40
# TYPE repro_server_request_seconds histogram
repro_server_request_seconds_bucket{le="0.001"} 90
repro_server_request_seconds_bucket{le="0.1"} 99
repro_server_request_seconds_bucket{le="+Inf"} 100
repro_server_request_seconds_sum 1.5
repro_server_request_seconds_count 100
# TYPE repro_server_queue_depth gauge
repro_server_queue_depth 7
"""


class TestParsePrometheus:
    def test_scalars_and_labels(self):
        scrape = parse_prometheus(SAMPLE)
        assert scrape.value("repro_server_requests") == 120
        assert scrape.value("repro_server_tenant_requests", tenant="1") == 40
        assert scrape.value("repro_server_queue_depth") == 7
        assert scrape.value("repro_missing", default=-1.0) == -1.0
        assert scrape.labelled("repro_server_tenant_requests") == {
            (("tenant", "0"),): 80,
            (("tenant", "1"),): 40,
        }

    def test_histogram_buckets_fold_out_le(self):
        scrape = parse_prometheus(SAMPLE)
        buckets = scrape.buckets("repro_server_request_seconds")
        assert buckets == {0.001: 90, 0.1: 99, math.inf: 100}
        # _sum/_count stay scalar series, not bucket entries.
        assert scrape.value("repro_server_request_seconds_count") == 100

    def test_unparseable_line_raises(self):
        with pytest.raises(ConfigurationError):
            parse_prometheus("this is not a metric\n")


class TestQuantileFromBuckets:
    def test_empty_is_zero(self):
        assert quantile_from_buckets({}, 0.5) == 0.0
        assert quantile_from_buckets({0.1: 0.0}, 0.5) == 0.0

    def test_picks_bucket_upper_bound(self):
        buckets = {0.001: 90, 0.1: 99, math.inf: 100}
        assert quantile_from_buckets(buckets, 0.50) == 0.001
        assert quantile_from_buckets(buckets, 0.95) == 0.1
        assert quantile_from_buckets(buckets, 1.0) == math.inf


class TestDashboard:
    def test_rates_come_from_frame_deltas(self):
        dash = Dashboard("http://example.invalid")
        first = parse_prometheus(SAMPLE)
        first.t = 100.0
        frame1 = dash.render(first)
        assert "first frame" in frame1

        second = parse_prometheus(
            SAMPLE.replace(
                "repro_server_requests 120", "repro_server_requests 320"
            )
        )
        second.t = 110.0  # 200 more requests over 10 s => 20 IOPS
        frame2 = dash.render(second)
        assert "IOPS" in frame2 and "20.0" in frame2
        assert "tenant" in frame2  # per-tenant table rendered
        assert dash.frames_rendered == 2


class TestWatchEndToEnd:
    def test_watch_once_against_live_sidecar(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("server.requests").inc(42)
        registry.histogram("server.request_seconds", TIME_BUCKETS).observe(
            0.002
        )

        async def go():
            async with ObsHttpServer(registry=registry) as server:
                out = io.StringIO()
                rendered = await asyncio.to_thread(
                    watch,
                    f"http://127.0.0.1:{server.port}",
                    once=True,
                    out=out,
                )
                return rendered, out.getvalue()

        rendered, text = asyncio.run(go())
        assert rendered == 1
        assert "repro obs watch" in text
        assert "\x1b[2J" not in text  # --once must not clear the screen
