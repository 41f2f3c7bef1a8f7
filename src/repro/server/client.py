"""Asyncio client for the block-storage service.

A :class:`StorageClient` owns one TCP connection and supports arbitrary
pipelining: every request gets a fresh ``request_id``, a background reader
task matches responses back to their futures, and callers get concurrency
simply by issuing several coroutines at once::

    client = await StorageClient.connect("127.0.0.1", port)
    await asyncio.gather(*(client.write(lpn, data[lpn]) for lpn in lpns))
    bits = await client.read(lpns[0])
    info = await client.stat()
    await client.close()

Typed server errors come back as the *same* exceptions the local
:class:`~repro.ssd.device.SSD` raises (``ReadOnlyModeError``,
``LogicalAddressError``, ``UncorrectableReadError``), so code written
against the in-process device ports to the wire unchanged;
service-specific failures raise :class:`~repro.errors.ServerBusyError`,
:class:`~repro.errors.RecoveringError` (crash recovery is still replaying
the journal — retry shortly), :class:`~repro.errors.ProtocolError` or
plain :class:`~repro.errors.ServerError`.

Trace propagation
-----------------
With metrics enabled, every request is stamped with a fresh 64-bit trace
id carried in the wire frame; the server's admission/flush/fsync spans pick
it up, so one ``trace_id`` stitches the whole request across processes.
The id of the most recently *issued* request is exposed as
``client.last_trace_id`` and each completed request records a
``client.request`` trace event locally.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from repro.errors import (
    ConnectionLostError,
    LogicalAddressError,
    ProtocolError,
    ReadOnlyModeError,
    RecoveringError,
    ServerBusyError,
    ServerError,
    UncorrectableReadError,
)
from repro.obs import registry as _metrics
from repro.obs.registry import TIME_BUCKETS
from repro.obs.tracing import new_trace_id
from repro.server import protocol
from repro.server.protocol import (
    Opcode,
    Request,
    Response,
    Status,
)

__all__ = ["DEFAULT_CONNECT_TIMEOUT", "StorageClient"]

#: Wall-clock bound on ``connect()``'s TCP handshake and HELLO exchange.
#: A peer that accepts the socket but never answers the HELLO (a non-repro
#: server, a firewalled port eating bytes) would otherwise hang the caller
#: forever.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Status -> exception type for non-OK responses.
_STATUS_ERRORS: dict[Status, type[Exception]] = {
    Status.BAD_REQUEST: ServerError,
    Status.OUT_OF_RANGE: LogicalAddressError,
    Status.READ_ONLY: ReadOnlyModeError,
    Status.UNCORRECTABLE: UncorrectableReadError,
    Status.BUSY: ServerBusyError,
    Status.INTERNAL: ServerError,
    Status.RECOVERING: RecoveringError,
}


class StorageClient:
    """One pipelined connection to a :class:`~repro.server.StorageService`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 1
        self._pending: dict[int, tuple[Opcode, asyncio.Future]] = {}
        self._closed = False
        self._dead: Exception | None = None  # set once the read loop exits
        #: Trace id stamped on the most recently issued traced request.
        self.last_trace_id = 0
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        tenant: int = 0,
        timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
    ) -> "StorageClient":
        """Open a connection and complete the HELLO handshake.

        ``timeout`` bounds the whole handshake (TCP connect + HELLO round
        trip).  A peer that accepts the socket but never produces a valid
        HELLO reply — a truncated frame, garbage bytes, or silence — fails
        fast with a typed :class:`~repro.errors.ProtocolError` instead of
        hanging.  ``timeout=None`` disables the bound.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        except asyncio.TimeoutError:
            raise ProtocolError(
                f"connect to {host}:{port} timed out after {timeout}s"
            ) from None
        client = cls(reader, writer)
        try:
            await asyncio.wait_for(client.hello(tenant), timeout)
        except asyncio.TimeoutError:
            await client.close()
            raise ProtocolError(
                f"no HELLO reply from {host}:{port} within {timeout}s "
                "(not a repro storage server?)"
            ) from None
        except BaseException:
            await client.close()
            raise
        return client

    async def __aenter__(self) -> "StorageClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- public operations ---------------------------------------------------

    async def read(self, lpn: int) -> np.ndarray:
        """Read one logical page's dataword bits."""
        response = await self._request(Request(Opcode.READ, 0, lpn=lpn))
        return response.data

    async def write(self, lpn: int, data: np.ndarray) -> None:
        """Write one logical page; returns once the server acknowledged."""
        await self._request(Request(Opcode.WRITE, 0, lpn=lpn,
                                    data=np.asarray(data, dtype=np.uint8)))

    async def trim(self, lpn: int) -> None:
        """Discard one logical page."""
        await self._request(Request(Opcode.TRIM, 0, lpn=lpn))

    async def stat(self) -> dict:
        """Device + server state (see ``StorageService._stat``)."""
        response = await self._request(Request(Opcode.STAT, 0))
        return response.stat

    async def hello(self, tenant: int) -> None:
        """Declare this connection's tenant (and this build's protocol)."""
        await self._request(Request(Opcode.HELLO, 0, tenant=tenant))

    async def close(self) -> None:
        """Close the connection; pending requests fail with ConnectionLost."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(ConnectionLostError("client closed"))

    # -- machinery -----------------------------------------------------------

    async def _request(self, request: Request) -> Response:
        if self._closed:
            raise ConnectionLostError("client is closed")
        if self._dead is not None:
            # The read loop already exited; a new request's response could
            # never be delivered, so fail fast instead of hanging.  A wire
            # violation keeps its typed ProtocolError; everything else is
            # a lost connection.
            if isinstance(self._dead, ProtocolError):
                raise ProtocolError(str(self._dead))
            raise ConnectionLostError(str(self._dead))
        request_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF or 1
        registry = _metrics.get_registry()
        trace_id = 0
        if registry.enabled and request.opcode is not Opcode.HELLO:
            # Mint an id only when telemetry is on (an id nobody records is
            # wasted bytes).
            trace_id = new_trace_id()
            self.last_trace_id = trace_id
        request = Request(request.opcode, request_id, lpn=request.lpn,
                          data=request.data, tenant=request.tenant,
                          version=request.version, trace_id=trace_id)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = (request.opcode, future)
        start = time.perf_counter()
        try:
            self._writer.write(protocol.encode_request(request))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise ConnectionLostError(str(exc)) from exc
        response = await future
        if registry.enabled and request.opcode is not Opcode.HELLO:
            # Recorded as a flat event rather than a ``span()``: requests
            # pipeline across awaits, so nesting them on the span stack
            # would interleave unrelated requests into one bogus tree.
            duration = time.perf_counter() - start
            event = {
                "name": "client.request",
                "span_id": registry.next_span_id(),
                "parent_id": None,
                "pid": os.getpid(),
                "ts": time.time(),
                "dur": duration,
                "attrs": {
                    "op": request.opcode.name,
                    "lpn": request.lpn,
                    "status": response.status.name,
                },
            }
            if trace_id:
                event["trace_id"] = trace_id
            registry.record_event(event)
            registry.histogram(
                "client.request_seconds", TIME_BUCKETS
            ).observe(duration)
        if response.status is not Status.OK:
            raise _STATUS_ERRORS[response.status](
                response.message or response.status.name
            )
        return response

    async def _read_loop(self) -> None:
        try:
            while True:
                body = await protocol.read_frame(self._reader)
                if body is None:
                    self._fail_pending(
                        ConnectionLostError("server closed the connection")
                    )
                    return
                if len(body) < 5:
                    # Too short to carry status + request id: responses can
                    # no longer be routed to their futures, so the stream is
                    # unusable (a non-repro peer, most likely).
                    raise ProtocolError(
                        f"response body of {len(body)} bytes is too short "
                        "to route"
                    )
                # Peek the request id to recover the awaited opcode, then
                # decode with the right payload interpretation.
                request_id = int.from_bytes(body[1:5], "big")
                entry = self._pending.pop(request_id, None)
                if entry is None:
                    continue  # stale/unknown id; nothing is waiting
                opcode, future = entry
                try:
                    response = protocol.decode_response(body, expect=opcode)
                except ProtocolError as exc:
                    if not future.done():
                        future.set_exception(exc)
                    continue
                if not future.done():
                    future.set_result(response)
        except ProtocolError as exc:
            # Keep the typed wire-violation error: callers probing whether
            # a peer speaks the protocol need to tell "not a repro server"
            # apart from "connection dropped".
            self._fail_pending(exc)
        except (ConnectionError, OSError) as exc:
            self._fail_pending(ConnectionLostError(str(exc)))
        except asyncio.CancelledError:
            raise

    def _fail_pending(self, error: Exception) -> None:
        self._dead = error
        pending, self._pending = self._pending, {}
        for _opcode, future in pending.values():
            if not future.done():
                future.set_exception(error)
