"""Client behavior against peers that are not (working) repro servers.

Any ``connect()`` caller, the load generator's geometry probe among them,
must get a fast, *typed* failure from a port that accepts TCP but never
speaks the protocol — not a bare ``struct.error`` and not an indefinite
hang.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.errors import ProtocolError
from repro.server.client import StorageClient


async def _serve(handler) -> tuple[asyncio.base_events.Server, int]:
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestConnectTimeout:
    def test_silent_server_raises_protocol_error_fast(self) -> None:
        """A peer that accepts and then says nothing must not hang HELLO."""

        async def black_hole(reader, writer) -> None:
            await asyncio.sleep(30)

        async def go() -> None:
            server, port = await _serve(black_hole)
            try:
                with pytest.raises(ProtocolError, match="no HELLO reply"):
                    await asyncio.wait_for(
                        StorageClient.connect(
                            "127.0.0.1", port, timeout=0.3
                        ),
                        timeout=5.0,  # the outer bound proves "fast"
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_refused_connect_raises_os_error_fast(self) -> None:
        async def go() -> None:
            server, port = await _serve(lambda r, w: asyncio.sleep(0))
            server.close()
            await server.wait_closed()  # port is now free → RST
            with pytest.raises((ProtocolError, OSError)):
                await asyncio.wait_for(
                    StorageClient.connect("127.0.0.1", port, timeout=0.3),
                    timeout=5.0,
                )

        asyncio.run(go())


class TestMalformedReplies:
    def test_truncated_response_body_is_protocol_error(self) -> None:
        """A frame too short to carry status + request id fails typed.

        Without the guard the client peeked ``body[1:5]`` of a 3-byte
        body, matched no pending request, and the caller hung forever.
        """

        async def truncating(reader, writer) -> None:
            await reader.read(64)  # swallow the HELLO
            writer.write(struct.pack("!I", 3) + b"\x00\x00\x00")
            await writer.drain()
            await asyncio.sleep(30)

        async def go() -> None:
            server, port = await _serve(truncating)
            try:
                with pytest.raises(ProtocolError, match="too short"):
                    await asyncio.wait_for(
                        StorageClient.connect("127.0.0.1", port),
                        timeout=5.0,
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_non_repro_garbage_is_protocol_error(self) -> None:
        """An HTTP server (say) answering the HELLO fails typed and fast."""

        async def http_like(reader, writer) -> None:
            await reader.read(64)
            writer.write(b"HTTP/1.1 400 Bad Request\r\n\r\n" * 40)
            await writer.drain()
            await asyncio.sleep(30)

        async def go() -> None:
            server, port = await _serve(http_like)
            try:
                with pytest.raises(ProtocolError):
                    await asyncio.wait_for(
                        StorageClient.connect("127.0.0.1", port),
                        timeout=5.0,
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())

    def test_dead_latch_keeps_protocol_error_type(self) -> None:
        """Requests after a wire violation also fail with ProtocolError."""

        async def truncating(reader, writer) -> None:
            await reader.read(64)
            writer.write(struct.pack("!I", 2) + b"\x00\x00")
            await writer.drain()
            await asyncio.sleep(30)

        async def go() -> None:
            server, port = await _serve(truncating)
            client = None
            try:
                with pytest.raises(ProtocolError):
                    client = await asyncio.wait_for(
                        StorageClient.connect("127.0.0.1", port),
                        timeout=5.0,
                    )
            finally:
                if client is not None:
                    await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(go())
