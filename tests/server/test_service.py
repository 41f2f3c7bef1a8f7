"""End-to-end service tests over real loopback sockets (ephemeral ports)."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ConnectionLostError,
    LogicalAddressError,
    ReadOnlyModeError,
    ServerBusyError,
    ServerError,
)
from repro.flash import FlashGeometry
from repro.obs import registry as obs_registry
from repro.server import ServerConfig, StorageClient, StorageService
from repro.server import protocol
from repro.ssd import SSD

GEOM = FlashGeometry(blocks=8, pages_per_block=8, page_bits=256,
                     erase_limit=100)


def make_ssd(scheme: str = "mfc-1/2-1bpc") -> SSD:
    kwargs = (
        {"constraint_length": 4}
        if scheme.startswith("mfc") and scheme != "mfc-ecc" else {}
    )
    return SSD(geometry=GEOM, scheme=scheme, utilization=0.5, **kwargs)


def payloads(ssd: SSD, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (count, ssd.logical_page_bits), dtype=np.uint8)


def chip_image(ssd: SSD) -> list:
    """Every physical page's stored (noise-free) contents."""
    return [
        ssd.chip.read_page(block, page, noisy=False).tolist()
        for block in range(GEOM.blocks)
        for page in range(GEOM.pages_per_block)
    ]


class TestRoundTrip:
    def test_write_then_read(self) -> None:
        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    data = payloads(ssd, 1)[0]
                    await client.write(3, data)
                    return await client.read(3), data

        got, expected = asyncio.run(go())
        assert np.array_equal(got, expected)

    def test_stat_reports_device_and_server_state(self) -> None:
        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    await client.write(0, payloads(ssd, 1)[0])
                    return await client.stat(), ssd

        stat, ssd = asyncio.run(go())
        assert stat["scheme"] == "mfc-1/2-1bpc"
        assert stat["logical_pages"] == ssd.logical_pages
        assert stat["dataword_bits"] == ssd.logical_page_bits
        assert stat["lifetime_state"] == "healthy"
        assert stat["server"]["writes"] == 1
        # The in-flight STAT is accounted only after its reply is built.
        assert stat["server"]["requests"] == 1
        assert stat["config"]["admission"] == "block"

    def test_trim_then_read_returns_zeros(self) -> None:
        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    data = payloads(ssd, 1)[0]
                    await client.write(1, data)
                    assert np.array_equal(await client.read(1), data)
                    await client.trim(1)
                    return await client.read(1)

        assert not asyncio.run(go()).any()  # trimmed pages read as zeros

    def test_ephemeral_port_is_real(self) -> None:
        async def go():
            async with StorageService(make_ssd()) as service:
                assert service.port > 0
                return service.port

        assert asyncio.run(go()) > 0


class TestReadYourWrites:
    def test_concurrent_clients_disjoint_ranges(self) -> None:
        """N clients hammer disjoint LPN ranges; every ack is durable."""

        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                per_client = 4
                datas = payloads(ssd, 3 * per_client, seed=9)

                async def one(index: int):
                    base = index * per_client
                    async with await StorageClient.connect(
                        "127.0.0.1", service.port
                    ) as client:
                        for k in range(per_client):
                            await client.write(base + k, datas[base + k])
                        return [
                            await client.read(base + k)
                            for k in range(per_client)
                        ]

                reads = await asyncio.gather(*(one(i) for i in range(3)))
                return reads, datas, service.stats.requests

        reads, datas, requests = asyncio.run(go())
        for index, client_reads in enumerate(reads):
            for k, got in enumerate(client_reads):
                assert np.array_equal(got, datas[index * 4 + k])
        assert requests == 3 * 8

    def test_ack_visible_from_other_connection(self) -> None:
        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                data = payloads(ssd, 1, seed=4)[0]
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as writer:
                    await writer.write(5, data)  # ack received here
                    async with await StorageClient.connect(
                        "127.0.0.1", service.port
                    ) as reader:
                        return await reader.read(5), data

        got, expected = asyncio.run(go())
        assert np.array_equal(got, expected)


class TestCoalescing:
    def test_pipelined_writes_coalesce_and_match_sequential(self) -> None:
        """A burst of pipelined writes must land exactly like serial ones."""

        async def go():
            ssd = make_ssd()
            lpns = list(range(8))
            datas = payloads(ssd, 2 * len(lpns), seed=7)
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    # Two rounds: the first maps every LPN, the second
                    # exercises the coalesced in-place rewrite path.
                    await asyncio.gather(
                        *(client.write(lpn, datas[lpn]) for lpn in lpns)
                    )
                    await asyncio.gather(
                        *(client.write(lpn, datas[len(lpns) + lpn])
                          for lpn in lpns)
                    )
                return ssd, lpns, datas, service.stats

        ssd, lpns, datas, stats = asyncio.run(go())

        reference = make_ssd()
        for lpn in lpns:
            reference.write(lpn, datas[lpn])
        for lpn in lpns:
            reference.write(lpn, datas[len(lpns) + lpn])

        assert chip_image(ssd) == chip_image(reference)
        assert ssd.chip.block_erase_counts() == \
            reference.chip.block_erase_counts()
        assert ssd.ftl.stats.summary() == reference.ftl.stats.summary()
        assert stats.max_batch_size >= 2
        assert stats.coalesced_writes >= 2

    def test_interleaved_read_observes_prior_writes(self) -> None:
        """A READ queued between WRITEs never jumps ahead of them."""

        async def go():
            ssd = make_ssd()
            data = payloads(ssd, 2, seed=5)
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    write1 = client.write(0, data[0])
                    read = client.read(0)
                    write2 = client.write(1, data[1])
                    results = await asyncio.gather(write1, read, write2)
                    return results[1], data[0]

        got, expected = asyncio.run(go())
        assert np.array_equal(got, expected)


class TestTypedErrors:
    def test_out_of_range_lpn(self) -> None:
        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    bad = ssd.logical_pages + 10
                    errors = []
                    for op in (client.read(bad),
                               client.write(bad, payloads(ssd, 1)[0]),
                               client.trim(bad)):
                        try:
                            await op
                        except Exception as exc:  # noqa: BLE001
                            errors.append(type(exc))
                    # The stream survived the errors.
                    await client.stat()
                    return errors

        assert asyncio.run(go()) == [LogicalAddressError] * 3

    def test_wrong_dataword_size(self) -> None:
        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    try:
                        await client.write(
                            0, np.zeros(ssd.logical_page_bits + 1, np.uint8)
                        )
                    except ServerError:
                        return True
                    return False

        assert asyncio.run(go())

    def test_read_only_device_rejects_writes_serves_reads(self) -> None:
        async def go():
            ssd = make_ssd()
            data = payloads(ssd, 1, seed=2)[0]
            async with StorageService(ssd) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    await client.write(0, data)
                    ssd.enter_read_only()
                    outcomes = {}
                    try:
                        await client.write(1, data)
                        outcomes["write"] = None
                    except ReadOnlyModeError:
                        outcomes["write"] = "read_only"
                    try:
                        await client.trim(0)
                        outcomes["trim"] = None
                    except ReadOnlyModeError:
                        outcomes["trim"] = "read_only"
                    outcomes["read"] = await client.read(0)
                    outcomes["stat"] = await client.stat()
                    return outcomes, data

        outcomes, data = asyncio.run(go())
        assert outcomes["write"] == "read_only"
        assert outcomes["trim"] == "read_only"
        assert np.array_equal(outcomes["read"], data)
        assert outcomes["stat"]["lifetime_state"] == "read_only"
        assert outcomes["stat"]["read_only"] is True

    def test_reject_mode_sheds_load_with_busy(self) -> None:
        async def go():
            ssd = make_ssd()
            slow = ssd.write_batch

            def write_batch(lpns, datas):
                time.sleep(0.05)  # hold the device so the queue fills
                return slow(lpns, datas)

            ssd.write_batch = write_batch
            config = ServerConfig(max_batch=1, queue_depth=1,
                                  admission="reject")
            async with StorageService(ssd, config) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    datas = payloads(ssd, 10, seed=8)
                    results = await asyncio.gather(
                        *(client.write(lpn, datas[lpn]) for lpn in range(10)),
                        return_exceptions=True,
                    )
                busy = sum(isinstance(r, ServerBusyError) for r in results)
                ok = sum(r is None for r in results)
                return busy, ok, service.stats.rejected

        busy, ok, rejected = asyncio.run(go())
        assert busy >= 1        # admission control shed something
        assert ok >= 1          # but the server kept serving
        assert rejected == busy


class TestProtocolViolations:
    def test_malformed_body_keeps_stream_alive(self) -> None:
        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                # Well-framed garbage: unknown opcode 99, request id 7.
                writer.write(protocol.frame(
                    bytes([99]) + (7).to_bytes(4, "big")
                ))
                await writer.drain()
                body = await protocol.read_frame(reader)
                response = protocol.decode_response(body)
                # Same stream still answers real requests afterwards.
                writer.write(protocol.encode_request(
                    protocol.Request(protocol.Opcode.STAT, 8)
                ))
                await writer.drain()
                second = protocol.decode_response(
                    await protocol.read_frame(reader),
                    expect=protocol.Opcode.STAT,
                )
                writer.close()
                await writer.wait_closed()
                return response, second

        response, second = asyncio.run(go())
        assert response.status is protocol.Status.BAD_REQUEST
        assert response.request_id == 7
        assert second.status is protocol.Status.OK

    def test_oversized_frame_drops_connection(self) -> None:
        registry = obs_registry.get_registry()
        registry.enabled = True

        async def go():
            ssd = make_ssd()
            async with StorageService(ssd) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(
                    (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
                )
                await writer.drain()
                closed = (await reader.read(64)) == b""
                writer.close()
                await writer.wait_closed()
                return closed, service.stats

        closed, stats = asyncio.run(go())
        assert closed
        # A dropped connection is a protocol error, not an error response:
        # the dataclass and the registry count it in the same place.
        assert (stats.protocol_errors, stats.errors) == (1, 0)
        assert registry.counter("server.protocol_errors").value == 1
        assert registry.counter("server.errors").value == 0


class TestLifecycle:
    def test_double_start_rejected(self) -> None:
        async def go():
            service = StorageService(make_ssd())
            await service.start()
            try:
                with pytest.raises(ConfigurationError):
                    await service.start()
            finally:
                await service.stop()

        asyncio.run(go())

    def test_port_before_start_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            StorageService(make_ssd()).port

    def test_stop_fails_inflight_client_requests(self) -> None:
        async def go():
            ssd = make_ssd()
            service = StorageService(ssd)
            await service.start()
            client = await StorageClient.connect("127.0.0.1", service.port)
            await client.write(0, payloads(ssd, 1)[0])
            await service.stop()
            try:
                await client.read(0)
            except (ConnectionLostError, ConnectionError, OSError):
                return True
            finally:
                await client.close()
            return False

        assert asyncio.run(go())

    def test_config_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            ServerConfig(max_batch=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(queue_depth=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(credit_window=0)
        with pytest.raises(ConfigurationError):
            ServerConfig(admission="maybe")
