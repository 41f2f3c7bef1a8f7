"""Live telemetry plane: a minimal asyncio HTTP sidecar for scrapes.

The sidecar turns the process-global registry from an exit-time dump into
a *live* surface: while the storage server (or any other host process)
runs, Prometheus can scrape ``/metrics``, orchestrators can probe
``/healthz``/``/readyz``, and humans can pull ``/traces`` and
``/debug/vars`` — all without pausing the event loop (every handler works
on an O(instruments) snapshot taken synchronously between frames).

Endpoints::

    /metrics      Prometheus text exposition of the live registry
    /healthz      liveness: 200 as long as the process serves HTTP; JSON
                  body carries degraded-state detail (RECOVERING,
                  READ_ONLY, journal fsync lag, shed rates)
    /readyz       readiness: 200 only when the service can take writes;
                  503 with a JSON reason list while RECOVERING (journal
                  replay) or after the device latched READ_ONLY
    /traces       recent spans from the ring-buffer trace store as JSON;
                  ``?trace_id=<hex or int>`` filters one wire-level trace,
                  ``?name=`` filters by span name, ``?limit=`` bounds the
                  reply (default 1000)
    /debug/vars   config/build/registry introspection plus whatever the
                  host process registered (server config, device, pool)

The server is deliberately not a framework: HTTP/1.0-style one request
per connection, GET only, no TLS — it binds loopback by default and
exists to be curled and scraped.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from urllib.parse import parse_qs, urlsplit

from repro import _version
from repro.errors import ConfigurationError
from repro.obs import registry as _metrics
from repro.obs.export import to_prometheus

__all__ = ["ObsHttpServer"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}

#: Default cap on one /traces reply.
TRACE_LIMIT = 1000

#: Hard bound on an inbound request head (request line + headers).
_MAX_REQUEST_BYTES = 16384

_SCRAPES = _metrics.counter("obs.http.scrapes")
_HTTP_REQUESTS = _metrics.counter("obs.http.requests")


def parse_trace_id(raw: str) -> int:
    """Accept decimal or (0x-prefixed or bare) hex trace ids."""
    text = raw.strip().lower()
    try:
        if text.startswith("0x"):
            return int(text, 16)
        if text.isdigit():
            return int(text)
        return int(text, 16)
    except ValueError:
        raise ConfigurationError(f"not a trace id: {raw!r}") from None


class ObsHttpServer:
    """HTTP scrape/health/trace sidecar over one metrics registry.

    ``service`` is duck-typed: anything with a ``health() -> dict`` method
    (the :class:`~repro.server.service.StorageService` contract) feeds
    ``/healthz`` and ``/readyz``; without one the process is reported
    alive and ready.  ``debug_vars`` is a callable returning extra
    ``/debug/vars`` entries; ``collectors`` are zero-arg callables invoked
    before the registry is read for ``/metrics`` (publishing stats deltas,
    refreshing point-in-time gauges).
    """

    def __init__(
        self,
        registry: _metrics.MetricsRegistry | None = None,
        service=None,
        debug_vars=None,
        collectors: tuple = (),
    ) -> None:
        self.registry = registry or _metrics.get_registry()
        self.service = service
        self._debug_vars = debug_vars
        self._collectors = tuple(collectors)
        self._server: asyncio.base_events.Server | None = None
        self._started = time.time()

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        if self._server is not None:
            raise ConfigurationError("obs http server already started")
        self._started = time.time()
        self._server = await asyncio.start_server(self._handle, host, port)

    @property
    def port(self) -> int:
        if self._server is None:
            raise ConfigurationError("obs http server not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def __aenter__(self) -> "ObsHttpServer":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            OSError,
        ):
            writer.close()
            return
        try:
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            parts = request_line.split()
            method, target = parts[0], parts[1]
        except (IndexError, UnicodeDecodeError):
            await self._respond(writer, 400, "text/plain", b"bad request\n")
            return
        _HTTP_REQUESTS.inc()
        if method != "GET":
            await self._respond(
                writer, 405, "text/plain", b"only GET is supported\n"
            )
            return
        url = urlsplit(target)
        query = parse_qs(url.query)
        try:
            status, content_type, body = self._route(url.path, query)
        except ConfigurationError as exc:
            status, content_type, body = (
                400, "application/json",
                _json_bytes({"error": str(exc)}),
            )
        await self._respond(writer, status, content_type, body)

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- routes --------------------------------------------------------------

    def _route(
        self, path: str, query: dict[str, list[str]]
    ) -> tuple[int, str, bytes]:
        if path == "/metrics":
            return self._metrics()
        if path == "/healthz":
            return self._healthz()
        if path == "/readyz":
            return self._readyz()
        if path == "/traces":
            return self._traces(query)
        if path == "/debug/vars":
            return self._debug()
        return 404, "application/json", _json_bytes(
            {"error": f"no route {path}",
             "routes": ["/metrics", "/healthz", "/readyz", "/traces",
                        "/debug/vars"]}
        )

    def _metrics(self) -> tuple[int, str, bytes]:
        _SCRAPES.inc()
        for collect in self._collectors:
            collect()
        text = to_prometheus(self.registry.snapshot(include_events=False))
        return 200, "text/plain; version=0.0.4", text.encode("utf-8")

    def _health_state(self) -> dict:
        if self.service is not None:
            return self.service.health()
        return {"status": "ok", "recovering": False, "read_only": False}

    def _healthz(self) -> tuple[int, str, bytes]:
        # Liveness: answering at all is the signal.  Degraded modes
        # (recovering, read-only) are reported in the body but stay 200 —
        # restarting a server mid-journal-replay would only lose progress.
        return 200, "application/json", _json_bytes(self._health_state())

    def _readyz(self) -> tuple[int, str, bytes]:
        state = self._health_state()
        reasons = []
        if state.get("recovering"):
            reasons.append("recovering: journal replay in progress")
        if state.get("read_only"):
            reasons.append("read_only: device latched end-of-life mode")
        ready = not reasons
        body = _json_bytes({"ready": ready, "reasons": reasons})
        return (200 if ready else 503), "application/json", body

    def _traces(
        self, query: dict[str, list[str]]
    ) -> tuple[int, str, bytes]:
        limit = TRACE_LIMIT
        if "limit" in query:
            try:
                limit = max(0, int(query["limit"][0]))
            except ValueError:
                raise ConfigurationError(
                    f"not a limit: {query['limit'][0]!r}"
                ) from None
        trace_id = None
        if "trace_id" in query:
            trace_id = parse_trace_id(query["trace_id"][0])
        events = self.registry.recent_events(limit=limit, trace_id=trace_id)
        if "name" in query:
            wanted = set(query["name"])
            events = [e for e in events if e.get("name") in wanted]
        body = {
            "count": len(events),
            "dropped": self.registry.counter("obs.events_dropped").value,
            "sample_every": self.registry.trace_sample_every,
            "events": events,
        }
        return 200, "application/json", _json_bytes(body)

    def _debug(self) -> tuple[int, str, bytes]:
        with self.registry._events_lock:
            buffered = len(self.registry.events)
        info: dict = {
            "version": _version.__version__,
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self._started,
            "obs": {
                "enabled": self.registry.enabled,
                "events_buffered": buffered,
                "max_events": self.registry.max_events,
                "trace_sample_every": self.registry.trace_sample_every,
            },
        }
        if self._debug_vars is not None:
            info.update(self._debug_vars())
        return 200, "application/json", _json_bytes(info)


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, default=str) + "\n").encode(
        "utf-8"
    )
