"""Load-generator tests against a real loopback service."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.obs import registry as obs_registry
from repro.server import ServerConfig, StorageService, make_workload
from repro.server.loadgen import (
    WORKLOADS,
    _percentile,
    run_closed_loop,
    run_open_loop,
)
from repro.workload import UniformWorkload

from tests.server.test_service import make_ssd


async def _with_service(coro_fn, scheme: str = "mfc-1/2-1bpc", config=None):
    ssd = make_ssd(scheme)
    async with StorageService(ssd, config) as service:
        return await coro_fn(ssd, service)


class TestMakeWorkload:
    def test_known_names(self) -> None:
        for name in WORKLOADS:
            workload = make_workload(name, 16, seed=1)
            assert 0 <= next(workload).lpn < 16

    def test_unknown_name(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown workload"):
            make_workload("bursty", 16, seed=1)

    def test_same_distributions_as_simulator(self) -> None:
        a = make_workload("uniform", 32, seed=9)
        b = UniformWorkload(32, seed=9)
        assert type(a) is type(b)
        assert [next(a) for _ in range(10)] == [next(b) for _ in range(10)]


class TestPercentile:
    def test_nearest_rank(self) -> None:
        ms = [float(v) for v in range(1, 101)]
        assert _percentile(ms, 0.50) == 50.0
        assert _percentile(ms, 0.95) == 95.0
        assert _percentile(ms, 0.99) == 99.0
        assert _percentile(ms, 1.0) == 100.0

    def test_empty_and_single(self) -> None:
        assert _percentile([], 0.99) == 0.0
        assert _percentile([7.0], 0.5) == 7.0


class TestClosedLoop:
    def test_counts_and_percentile_ordering(self) -> None:
        async def drive(ssd, service):
            return await run_closed_loop(
                "127.0.0.1", service.port,
                clients=3, ops_per_client=10, seed=1,
            )

        result = asyncio.run(_with_service(drive))
        assert result.mode == "closed" and result.clients == 3
        assert result.ops == 30 and result.writes == 30
        assert result.errors == 0 and result.busy == 0
        assert result.achieved_iops > 0
        assert result.p50_ms <= result.p95_ms <= result.p99_ms <= result.max_ms
        assert "closed loop" in result.summary_line()

    def test_read_fraction_one_only_reads(self) -> None:
        async def drive(ssd, service):
            return await run_closed_loop(
                "127.0.0.1", service.port,
                clients=2, ops_per_client=8, read_fraction=1.0, seed=1,
            )

        result = asyncio.run(_with_service(drive))
        assert result.reads == 16 and result.writes == 0

    def test_read_only_device_stops_generator_early(self) -> None:
        async def drive(ssd, service):
            ssd.enter_read_only()
            return await run_closed_loop(
                "127.0.0.1", service.port,
                clients=2, ops_per_client=50, seed=1,
            )

        result = asyncio.run(_with_service(drive))
        # Each client stops at its first READ_ONLY error instead of
        # issuing all 50 requests against a dead device.
        assert result.errors == 2
        assert result.ops == 2

    def test_publishes_loadgen_metrics(self) -> None:
        registry = obs_registry.get_registry()
        registry.enabled = True

        async def drive(ssd, service):
            return await run_closed_loop(
                "127.0.0.1", service.port, clients=1, ops_per_client=5,
            )

        asyncio.run(_with_service(drive))
        assert obs_registry.counter("loadgen.requests").value == 5.0
        # The server also saw the generator's geometry-probing STAT.
        assert obs_registry.counter("server.requests").value == 6.0

    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            asyncio.run(run_closed_loop("127.0.0.1", 1, clients=0))
        with pytest.raises(ConfigurationError):
            asyncio.run(run_closed_loop("127.0.0.1", 1, read_fraction=1.5))


class TestOpenLoop:
    def test_offered_rate_reported(self) -> None:
        async def drive(ssd, service):
            return await run_open_loop(
                "127.0.0.1", service.port,
                rate=2000.0, total_ops=20, seed=1,
            )

        result = asyncio.run(_with_service(drive))
        assert result.mode == "open"
        assert result.ops == 20 and result.offered_iops == 2000.0
        assert "offered=2000/s" in result.summary_line()

    def test_busy_counted_in_reject_mode(self) -> None:
        async def drive(ssd, service):
            return await run_open_loop(
                "127.0.0.1", service.port,
                rate=50_000.0, total_ops=60, seed=1,
            )

        config = ServerConfig(max_batch=1, queue_depth=1, credit_window=64,
                              admission="reject")
        result = asyncio.run(_with_service(drive, config=config))
        assert result.busy > 0   # shed load is visible
        assert result.ops == 60  # every attempt completed with some status

    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            asyncio.run(run_open_loop("127.0.0.1", 1, rate=0.0))
        with pytest.raises(ConfigurationError):
            asyncio.run(run_open_loop("127.0.0.1", 1, rate=10, total_ops=0))
