"""Load-generator tests: the two loops' timing rules against fake
servers, and ``run_closed_loop``/``run_open_loop`` against a real
loopback service."""

from __future__ import annotations

import asyncio
import itertools
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs import registry as obs_registry
from repro.server import ServerConfig, StorageService
from repro.server.loadgen import (
    _percentile,
    run_closed,
    run_closed_loop,
    run_open,
    run_open_loop,
)
from repro.server.runner import result_row
from repro.workload import make_workload

from tests.server.test_service import make_ssd

STALL_S = 0.2
RATE = 100.0


async def _with_service(coro_fn, scheme: str = "mfc-1/2-1bpc", config=None):
    ssd = make_ssd(scheme)
    async with StorageService(ssd, config) as service:
        return await coro_fn(ssd, service)


class TestTimingRule:
    def test_open_loop_charges_a_stall_to_every_request_due_behind_it(
        self,
    ) -> None:
        calls = []

        async def send(_connection, _op):
            # The fake server blocks the whole event loop on its first
            # request, so the generator cannot even send the requests that
            # come due meanwhile.
            if not calls:
                time.sleep(STALL_S)
            calls.append(time.perf_counter())
            return True

        stream = make_workload("uniform", 16, seed=1)
        records = asyncio.run(run_open(send, stream, 2, RATE, 0.5))
        assert len(records) == 50 and all(r.ok and r.write for r in records)
        by_due = sorted(records, key=lambda r: r.due)
        start = by_due[0].due
        # The schedule never slips, however late the sends run.
        assert by_due[-1].due - start == pytest.approx(49 / RATE)
        behind = [r for r in by_due if 0 < r.due - start < STALL_S / 2]
        assert len(behind) >= 5
        for record in behind:
            waited = STALL_S - (record.due - start)
            # Sent late, because the loop was blocked ...
            assert record.sent - record.due >= waited - 0.01
            # ... and the latency counts that wait, although the send
            # itself took next to nothing.
            assert record.latency_s >= waited - 0.01
            assert record.done - record.sent < 0.05
        after = [r for r in by_due if r.due - start > STALL_S + 0.1]
        assert after and max(r.latency_s for r in after) < 0.05

    def test_closed_loop_keeps_in_flight_requests_per_connection(
        self,
    ) -> None:
        outstanding = [0, 0]
        peak = [0, 0]

        async def send(connection, _op):
            outstanding[connection] += 1
            peak[connection] = max(peak[connection], outstanding[connection])
            await asyncio.sleep(0.005)
            outstanding[connection] -= 1
            return True

        # Finite streams, no deadline: the count does not hang on the clock.
        streams = [
            itertools.islice(make_workload("uniform", 16, seed=s), 40)
            for s in (1, 2)
        ]
        records = asyncio.run(run_closed(send, streams, 4, float("inf")))
        assert peak == [4, 4]
        assert len(records) == 80
        assert all(r.due == r.sent for r in records)

    def test_finite_stream_ends_the_closed_loop_at_its_op_count(
        self,
    ) -> None:
        async def send(_connection, _op):
            await asyncio.sleep(0)
            return True

        streams = [
            itertools.islice(make_workload("uniform", 16, seed=s), 7)
            for s in (1, 2)
        ]
        records = asyncio.run(run_closed(send, streams, 3, float("inf")))
        assert len(records) == 14


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
        assert result_row(result).split()[:3] == ["3", "closed", "30"]

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
