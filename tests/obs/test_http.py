"""Tests for the obs HTTP sidecar: scrape, health, traces, debug vars."""

from __future__ import annotations

import asyncio
import json
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.obs.http import ObsHttpServer, parse_trace_id
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import span


def fetch(port: int, path: str):
    """Blocking GET against the sidecar; returns (status, headers, body)."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


async def get(server: ObsHttpServer, path: str):
    return await asyncio.to_thread(fetch, server.port, path)


class _FakeService:
    """Minimal health() provider standing in for StorageService."""

    def __init__(self, recovering=False, read_only=False):
        self._recovering = recovering
        self._read_only = read_only

    def health(self) -> dict:
        return {
            "status": "recovering" if self._recovering else "ok",
            "recovering": self._recovering,
            "read_only": self._read_only,
            "queue_depth": 3,
        }


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


class TestParseTraceId:
    def test_accepts_decimal_hex_and_0x(self):
        assert parse_trace_id("123") == 123
        assert parse_trace_id("0xff") == 255
        assert parse_trace_id("beef") == 0xBEEF

    def test_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            parse_trace_id("not-a-trace")


class TestEndpoints:
    def test_metrics_serves_live_prometheus_text(self, registry):
        async def go():
            registry.counter("server.requests").inc(7)
            async with ObsHttpServer(registry=registry) as server:
                status, headers, body = await get(server, "/metrics")
                registry.counter("server.requests").inc(5)
                _, _, body2 = await get(server, "/metrics")
            return status, headers, body, body2

        status, headers, body, body2 = asyncio.run(go())
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_server_requests 7" in body
        assert b"repro_server_requests 12" in body2  # live, not a dump

    def test_healthz_is_200_even_when_degraded(self, registry):
        async def go():
            server = ObsHttpServer(
                registry=registry, service=_FakeService(recovering=True)
            )
            async with server:
                return await get(server, "/healthz")

        status, _, body = asyncio.run(go())
        assert status == 200
        payload = json.loads(body)
        assert payload["recovering"] is True
        assert payload["status"] == "recovering"

    @pytest.mark.parametrize(
        "service, expected",
        [
            (None, 200),
            (_FakeService(), 200),
            (_FakeService(recovering=True), 503),
            (_FakeService(read_only=True), 503),
        ],
    )
    def test_readyz_semantics(self, registry, service, expected):
        async def go():
            async with ObsHttpServer(
                registry=registry, service=service
            ) as server:
                return await get(server, "/readyz")

        status, _, body = asyncio.run(go())
        assert status == expected
        payload = json.loads(body)
        assert payload["ready"] is (expected == 200)
        if expected == 503:
            assert payload["reasons"]

    def test_traces_filters_by_trace_id(self, registry):
        async def go():
            with span("server.request", registry=registry, trace_id=42):
                pass
            with span("server.request", registry=registry, trace_id=99):
                pass
            with span("server.flush", registry=registry, trace_ids=[42]):
                pass
            async with ObsHttpServer(registry=registry) as server:
                all_status, _, all_body = await get(server, "/traces")
                _, _, one_body = await get(server, "/traces?trace_id=42")
                _, _, hex_body = await get(server, "/traces?trace_id=0x2a")
                bad_status, _, _ = await get(server, "/traces?trace_id=zzz")
            return all_status, all_body, one_body, hex_body, bad_status

        all_status, all_body, one_body, hex_body, bad_status = asyncio.run(go())
        assert all_status == 200
        assert json.loads(all_body)["count"] == 3
        one = json.loads(one_body)
        # The direct span AND the batch-level span listing 42 in trace_ids.
        assert one["count"] == 2
        assert {event["name"] for event in one["events"]} == {
            "server.request", "server.flush",
        }
        assert json.loads(hex_body)["count"] == 2
        assert bad_status == 400

    def test_traces_respects_limit(self, registry):
        async def go():
            for _ in range(5):
                with span("s", registry=registry):
                    pass
            async with ObsHttpServer(registry=registry) as server:
                return [
                    json.loads((await get(server, f"/traces?limit={limit}"))[2])
                    for limit in (2, 0, -1)
                ]

        counts = [payload["count"] for payload in asyncio.run(go())]
        assert counts == [2, 0, 0]

    def test_debug_vars_includes_extras(self, registry):
        async def go():
            server = ObsHttpServer(
                registry=registry, debug_vars=lambda: {"scheme": "mfc"}
            )
            async with server:
                return await get(server, "/debug/vars")

        _, _, body = asyncio.run(go())
        payload = json.loads(body)
        assert payload["scheme"] == "mfc"
        assert payload["obs"]["enabled"] is True
        assert payload["pid"] > 0

    def test_unknown_route_404_and_post_405(self, registry):
        async def go():
            async with ObsHttpServer(registry=registry) as server:
                not_found, _, _ = await get(server, "/nope")

                def post():
                    req = urllib.request.Request(
                        f"http://127.0.0.1:{server.port}/metrics",
                        data=b"x", method="POST",
                    )
                    try:
                        with urllib.request.urlopen(req, timeout=5.0) as r:
                            return r.status
                    except urllib.error.HTTPError as exc:
                        return exc.code

                bad_method = await asyncio.to_thread(post)
            return not_found, bad_method

        not_found, bad_method = asyncio.run(go())
        assert not_found == 404
        assert bad_method == 405

    def test_scrapes_are_counted(self, registry):
        async def go():
            async with ObsHttpServer(registry=registry) as server:
                await get(server, "/metrics")
                await get(server, "/metrics")
            return registry

        # The scrape counter lives on the *global* registry (module-level
        # handle); this sidecar serves a private one, so just assert the
        # endpoint kept working — covered above — and the private registry
        # was not polluted.
        reg = asyncio.run(go())
        assert reg.counter("obs.http.scrapes").value == 0

    def test_port_requires_start(self, registry):
        server = ObsHttpServer(registry=registry)
        with pytest.raises(ConfigurationError):
            server.port
