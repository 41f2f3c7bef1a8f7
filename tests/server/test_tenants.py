"""Multi-tenant serving: HELLO declarations, QoS isolation, accounting."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServerBusyError
from repro.obs import registry as obs_registry
from repro.server import ServerConfig, StorageClient, StorageService
from repro.server.loadgen import (
    OpRecord,
    run_closed_loop,
    run_open_loop,
    summarise,
)
from repro.server.protocol import (
    Opcode,
    Request,
    decode_request,
    encode_request,
)
from repro.server.runner import tenant_rows
from repro.workload import Op, OpKind

from tests.server.test_service import make_ssd


async def _with_service(coro_fn, config=None):
    ssd = make_ssd()
    async with StorageService(ssd, config) as service:
        return await coro_fn(ssd, service)


class TestHelloProtocol:
    def test_round_trip(self) -> None:
        request = Request(Opcode.HELLO, 0, tenant=7)
        decoded = decode_request(encode_request(request)[4:])  # unframe
        assert decoded.opcode is Opcode.HELLO
        assert decoded.tenant == 7

    def test_default_tenant_zero(self) -> None:
        assert Request(Opcode.WRITE, 3).tenant == 0

    def test_connection_adopts_declared_tenant(self) -> None:
        async def drive(ssd, service):
            data = np.zeros(ssd.logical_page_bits, dtype=np.uint8)
            async with await StorageClient.connect(
                "127.0.0.1", service.port, tenant=3
            ) as client:
                await client.write(0, data)
            return service.stats.hellos, dict(service.tenant_stats)

        hellos, tenants = asyncio.run(_with_service(drive))
        assert hellos == 1
        assert tenants[3]["connections"] == 1
        assert tenants[3]["writes"] == 1

    def test_undeclared_connections_are_tenant_zero(self) -> None:
        async def drive(ssd, service):
            async with await StorageClient.connect(
                "127.0.0.1", service.port
            ) as client:
                await client.stat()
            return dict(service.tenant_stats)

        tenants = asyncio.run(_with_service(drive))
        assert tenants[0]["stat_requests"] == 1

    def test_tenant_stats_in_stat_payload(self) -> None:
        async def drive(ssd, service):
            async with await StorageClient.connect(
                "127.0.0.1", service.port, tenant=2
            ) as client:
                await client.read(0)
                return await client.stat()

        info = asyncio.run(_with_service(drive))
        assert info["config"]["tenant_credit_window"] is None
        assert info["tenants"]["2"]["reads"] == 1


class TestTenantCreditWindow:
    def test_window_validation(self) -> None:
        with pytest.raises(ConfigurationError, match="tenant_credit_window"):
            ServerConfig(tenant_credit_window=0)

    def test_busy_lands_on_the_offender_only(self) -> None:
        """The acceptance property: a tenant storming past its credit
        window sheds BUSY while a polite neighbour never sees one."""
        config = ServerConfig(
            max_batch=1, queue_depth=256, credit_window=256,
            admission="reject", tenant_credit_window=2,
        )

        async def drive(ssd, service):
            bits = ssd.logical_page_bits
            data = np.zeros(bits, dtype=np.uint8)
            hot = [
                await StorageClient.connect("127.0.0.1", service.port,
                                            tenant=1)
                for _ in range(6)
            ]
            cold = await StorageClient.connect("127.0.0.1", service.port,
                                               tenant=0)
            hot_busy = hot_ok = 0

            async def hot_op(client, lpn):
                nonlocal hot_busy, hot_ok
                try:
                    await client.write(lpn % ssd.logical_pages, data)
                    hot_ok += 1
                except ServerBusyError:
                    hot_busy += 1

            async def storm():
                await asyncio.gather(*(
                    hot_op(hot[k % len(hot)], k) for k in range(48)
                ))

            cold_busy = 0

            async def polite():
                nonlocal cold_busy
                for k in range(12):  # one outstanding op at a time
                    try:
                        await cold.write(k % ssd.logical_pages, data)
                    except ServerBusyError:
                        cold_busy += 1

            try:
                await asyncio.gather(storm(), polite())
            finally:
                for client in (*hot, cold):
                    await client.close()
            return hot_busy, hot_ok, cold_busy, dict(service.tenant_stats)

        hot_busy, hot_ok, cold_busy, tenants = asyncio.run(
            _with_service(drive, config=config)
        )
        assert hot_busy > 0          # the offender was shed
        assert hot_ok > 0            # but not starved outright
        assert cold_busy == 0        # the neighbour never saw BUSY
        assert tenants[1]["busy_rejected"] == hot_busy
        assert tenants[0]["busy_rejected"] == 0
        assert tenants[0]["writes"] == 12

    def test_sequential_tenant_never_rejected(self) -> None:
        """One outstanding request can never exhaust a window of two."""
        config = ServerConfig(admission="reject", tenant_credit_window=2)

        async def drive(ssd, service):
            data = np.zeros(ssd.logical_page_bits, dtype=np.uint8)
            async with await StorageClient.connect(
                "127.0.0.1", service.port, tenant=5
            ) as client:
                for k in range(20):
                    await client.write(k % ssd.logical_pages, data)
            return service.stats.rejected

        assert asyncio.run(_with_service(drive, config=config)) == 0


class TestMultiTenantLoadgen:
    def test_closed_loop_reports_per_tenant_rows(self) -> None:
        async def drive(ssd, service):
            return await run_closed_loop(
                "127.0.0.1", service.port,
                clients=4, ops_per_client=5, seed=1, tenants=2,
            )

        result = asyncio.run(_with_service(drive))
        assert result.ops == 20
        assert [row.tenant for row in result.per_tenant] == [0, 1]
        assert all(row.ops == 10 for row in result.per_tenant)
        for row in result.per_tenant:
            assert row.p50_ms <= row.p95_ms <= row.p99_ms <= row.max_ms
        assert "tenant 0:" in tenant_rows(result)

    def test_open_loop_mixed_stream_covers_all_tenants(self) -> None:
        async def drive(ssd, service):
            return await run_open_loop(
                "127.0.0.1", service.port,
                rate=5000.0, total_ops=60, seed=3, tenants=2,
            )

        result = asyncio.run(_with_service(drive))
        assert result.ops == 60
        assert sum(row.ops for row in result.per_tenant) == 60
        assert all(row.ops > 0 for row in result.per_tenant)

    def test_single_tenant_keeps_legacy_shape(self) -> None:
        async def drive(ssd, service):
            return await run_closed_loop(
                "127.0.0.1", service.port, clients=2, ops_per_client=3,
            )

        result = asyncio.run(_with_service(drive))
        assert [row.tenant for row in result.per_tenant] == [0]
        assert tenant_rows(result) == ""

    def test_tenants_must_not_exceed_clients(self) -> None:
        with pytest.raises(ConfigurationError, match="tenants"):
            asyncio.run(run_closed_loop("127.0.0.1", 1, clients=2, tenants=3))

    def test_publishes_per_tenant_metrics(self) -> None:
        registry = obs_registry.get_registry()
        registry.enabled = True

        async def drive(ssd, service):
            return await run_closed_loop(
                "127.0.0.1", service.port,
                clients=2, ops_per_client=4, seed=1, tenants=2,
            )

        asyncio.run(_with_service(drive))
        for tenant in (0, 1):
            name = f"loadgen.tenant{tenant}.requests"
            assert obs_registry.counter(name).value == 4.0
            assert obs_registry.counter(
                f"server.tenant{tenant}.requests"
            ).value >= 4.0


class TestZeroRequestTenantGuard:
    def test_idle_tenant_reports_zeros_not_raises(self) -> None:
        record = OpRecord(Op(OpKind.WRITE, 0), 0.0, 0.0, 0.002, True)
        result = summarise([record], mode="closed", clients=1, wall=1.0,
                           tenants=3)
        assert [row.tenant for row in result.per_tenant] == [0, 1, 2]
        idle = result.per_tenant[2]
        assert idle.ops == 0 and idle.errors == 0 and idle.busy == 0
        assert idle.p50_ms == idle.p99_ms == idle.mean_ms == idle.max_ms == 0.0

    def test_wholly_empty_run(self) -> None:
        result = summarise([], mode="open", clients=1, wall=0.5,
                           offered=100.0, tenants=2)
        assert result.ops == 0 and result.p99_ms == 0.0
        assert all(row.ops == 0 for row in result.per_tenant)
