"""End-to-end wire-level trace propagation: client ids in server spans."""

from __future__ import annotations

import asyncio

import numpy as np

from repro.flash import FlashGeometry
from repro.durability import DurableStore
from repro.obs import registry as obs_registry
from repro.server import StorageClient, StorageService, protocol
from repro.server.protocol import PROTO_VERSION, Opcode, Request, Status
from repro.ssd import SSD

GEOM = FlashGeometry(blocks=8, pages_per_block=8, page_bits=256,
                     erase_limit=100)


def make_ssd() -> SSD:
    return SSD(geometry=GEOM, scheme="mfc-1/2-1bpc", utilization=0.5,
               constraint_length=4)


def names(events: list[dict]) -> set[str]:
    return {event["name"] for event in events}


async def raw_exchange(reader, writer, frame: bytes, expect: Opcode):
    writer.write(frame)
    await writer.drain()
    return protocol.decode_response(
        await protocol.read_frame(reader), expect=expect
    )


class TestNegotiation:
    def test_connect_settles_on_v1(self) -> None:
        async def go():
            async with StorageService(make_ssd()) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                try:
                    return await raw_exchange(
                        reader, writer,
                        protocol.encode_request(Request(Opcode.HELLO, 1)),
                        Opcode.HELLO,
                    )
                finally:
                    writer.close()

        assert asyncio.run(go()).version == PROTO_VERSION == 1

    def test_tenant_only_hello_is_a_bad_request(self) -> None:
        """The retired 2-byte HELLO: typed refusal, stream still usable."""

        async def go():
            async with StorageService(make_ssd()) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                try:
                    good = protocol.encode_request(
                        Request(Opcode.HELLO, 9, tenant=3)
                    )
                    short = protocol.frame(good[4:-2])  # drop the version
                    refused = await raw_exchange(
                        reader, writer, short, Opcode.HELLO
                    )
                    accepted = await raw_exchange(
                        reader, writer, good, Opcode.HELLO
                    )
                    stat = await raw_exchange(
                        reader, writer,
                        protocol.encode_request(Request(Opcode.STAT, 10)),
                        Opcode.STAT,
                    )
                    return refused, accepted, stat, service.stats.hellos
                finally:
                    writer.close()

        refused, accepted, stat, hellos = asyncio.run(go())
        assert refused.status is Status.BAD_REQUEST
        assert refused.request_id == 9 and "HELLO" in refused.message
        assert accepted.status is Status.OK and accepted.version == 1
        assert stat.status is Status.OK and stat.stat["tenants"]["3"]
        assert hellos == 1


class TestPropagation:
    def test_one_trace_id_stitches_client_to_flush(self) -> None:
        """A single client-minted id spans issue, admission, flush, fsync."""
        registry = obs_registry.get_registry()
        registry.enabled = True

        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    data = np.ones(ssd.logical_page_bits, dtype=np.uint8)
                    await client.write(5, data)
                    write_id = client.last_trace_id
                    await client.read(5)
                    read_id = client.last_trace_id
                    return write_id, read_id

        write_id, read_id = asyncio.run(go())
        assert write_id and read_id and write_id != read_id

        write_events = registry.recent_events(trace_id=write_id)
        assert {"client.request", "server.queue_wait",
                "server.request", "server.flush"} <= names(write_events)
        flush = next(e for e in write_events if e["name"] == "server.flush")
        assert write_id in flush["attrs"]["trace_ids"]
        server_span = next(
            e for e in write_events if e["name"] == "server.request"
        )
        assert server_span["trace_id"] == write_id
        assert server_span["attrs"]["op"] == "WRITE"

        read_events = registry.recent_events(trace_id=read_id)
        assert {"client.request", "server.request"} <= names(read_events)
        # The read must not leak into the write's trace.
        assert all(e.get("trace_id") != read_id for e in write_events)

    def test_fsync_span_carries_the_trace_id(self, tmp_path) -> None:
        registry = obs_registry.get_registry()
        registry.enabled = True

        async def go():
            ssd = make_ssd()
            store = DurableStore(str(tmp_path / "d"))
            async with StorageService(ssd, store=store) as service:
                await service.recovery_done()
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    await client.write(
                        2, np.ones(ssd.logical_page_bits, dtype=np.uint8)
                    )
                    return client.last_trace_id

        trace_id = asyncio.run(go())
        events = registry.recent_events(trace_id=trace_id)
        fsync = next(e for e in events if e["name"] == "durability.fsync")
        assert trace_id in fsync["attrs"]["trace_ids"]

    def test_sampling_suppresses_server_subtrees_not_the_wire(self) -> None:
        """Head sampling thins stored spans; requests still carry ids."""
        registry = obs_registry.get_registry()
        registry.enabled = True
        registry.trace_sample_every = 1000  # keep ~none of the heads

        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    for lpn in range(8):
                        await client.read(lpn)
                    return client.last_trace_id

        last_id = asyncio.run(go())
        assert last_id != 0  # ids are still minted and sent on the wire
        stored = [
            e for e in registry.events if e["name"] == "server.request"
        ]
        assert len(stored) < 8  # but most server spans were sampled away
