"""The two served workloads, and the rate ladder built on the same server.

One process holds everything: the :class:`StorageService`, its device
thread, and the load generator, which talks to the service over loopback
TCP through two :class:`StorageClient` connections.  The device runs
``mfc-1/2-1bpc`` at K=7 and is journaled with one group commit per flush
(``fsync_policy="batch"``).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import shutil
import tempfile
import time
from collections.abc import Iterator

from repro.coding.kernels import resolve_backend
from repro.durability.store import DurableStore
from repro.errors import ReproError
from repro.flash.geometry import FlashGeometry
from repro.server.client import StorageClient
from repro.server.service import ServerConfig, StorageService
from repro.ssd.device import SSD
from repro.workload import Op, OpKind, make_workload, payload_for

from . import loadgen, stats
from .harness import (
    REFERENCE_EVERY_S, SCRATCH, Outcome, Pace, Run, Window, end_to_end,
    layer_metrics, matching, nominal, total_setup,
)
from .inprocess import (
    DEVICE_GEOMETRY, device_counts, lanes_mean, one_lane_encode_p50_ms,
    stats_snapshot,
)
from .oracle import PageOracle
from .tracer import Tracer

__all__ = ["run_ladder", "run_served_mixed_journaled", "run_served_open_write"]

SCHEME = "mfc-1/2-1bpc"
CONSTRAINT_LENGTH = 7
#: The served device: pages as on ``device-wom-gc`` and as many logical
#: pages (395), but three times the blocks, so that GC never has to run
#: inside a window.  It must not: ``RewritingFTL.write_batch`` looks the
#: batch's physical pages up once, and when one lane relocates and that
#: triggers GC, the pages of later lanes may have moved; the flush then
#: fails with "program would clear bit(s)" (32 blocks, seed 2017: 5 writes
#: refused) and could lose an acknowledged write.  That is for a later PR
#: to fix in ``src/``; a benchmark needs workloads on which no op fails.
#: So no workload covers MFC + batch flush + GC together, on purpose, until
#: then: ``tests/test_known_bugs.py`` reproduces the failure on the 32-block
#: device (expected to fail, strictly), and once it passes these two lines
#: go back to ``DEVICE_GEOMETRY`` and ``DEVICE_UTILIZATION``.
SERVED_GEOMETRY = {**DEVICE_GEOMETRY, "blocks": 96}
SERVED_UTILIZATION = 0.26
CONNECTIONS = 2
IN_FLIGHT = 16           # per connection, closed loop
#: Open loop: writes per second.  The device thread is busy 4 ms per write
#: on this box, so this is 30% of its capacity; interference from the host
#: halves the box's speed for seconds at a time, and at 150/s such a phase
#: overloads the server and the run measures the backlog, not the path.
OPEN_RATE = 75.0
LATENCY_LIMIT_S = 0.025  # open loop: a write later than this is over limit
LADDER_RATES = (75.0, 150.0, 300.0)
LADDER_SECONDS = 10.0    # at each rate
LADDER_SEED = 2016
FSYNC_POLICY = "batch"
#: Journal records between checkpoints.  Low enough that the 1 900 records
#: of a ``served-open-write`` window always cross exactly one checkpoint,
#: and that recovering the crash image replays at most 1 000 records.
CHECKPOINT_EVERY = 1000
MAX_BATCH = 32


def _make_ssd() -> SSD:
    return SSD(
        geometry=FlashGeometry(**SERVED_GEOMETRY), scheme=SCHEME,
        utilization=SERVED_UTILIZATION, constraint_length=CONSTRAINT_LENGTH,
    )


def traced_ops(tracer: Tracer, stream: Iterator[Op]) -> Iterator[Op]:
    """``stream`` with a ``workload.next_op`` span around every draw."""
    while True:
        with tracer.span("workload.next_op"):
            op = next(stream)
        yield op


class Served:
    """One running server with its device, journal, clients and oracle."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.ssd = _make_ssd()
        self.bits = self.ssd.logical_page_bits
        self.oracle = PageOracle(blank=bytes(self.bits))
        SCRATCH.mkdir(exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="data-", dir=SCRATCH)
        self.store = DurableStore(
            self.data_dir, fsync_policy=FSYNC_POLICY,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        self.service = StorageService(
            self.ssd, ServerConfig(max_batch=MAX_BATCH), store=self.store
        )
        self.clients: list[StorageClient] = []

    async def start(self, seed: int) -> None:
        """Serve on an ephemeral port, recover the empty directory, connect,
        and write every logical page once through the server."""
        await self.service.start(port=0)
        await self.service.recovery_done()
        for _ in range(CONNECTIONS):
            self.clients.append(
                await StorageClient.connect("127.0.0.1", self.service.port)
            )
        fill = make_workload("sequential", self.ssd.logical_pages, seed=seed)
        pages = iter(range(self.ssd.logical_pages))

        async def filler(connection: int) -> None:
            for _ in pages:
                if not await self.send(connection, next(fill)):
                    raise RuntimeError("warm fill: a write failed")

        await asyncio.gather(*(
            filler(connection)
            for connection in range(CONNECTIONS) for _ in range(IN_FLIGHT)
        ))

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        await self.service.stop()
        self.store.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it

    async def send(self, connection: int, op: Op) -> bool:
        """One request; True when it succeeded with the right payload."""
        client = self.clients[connection]
        if op.kind is OpKind.READ:
            read = self.oracle.read_issued(op.lpn)
            try:
                data = (await client.read(op.lpn)).tobytes()
            except ReproError:
                data = None
            return self.oracle.read_matches(read, data)
        with self.tracer.span("workload.payload_for"):
            payload = payload_for(op, self.bits)
        token = self.oracle.write_issued(op.lpn, payload.tobytes())
        try:
            await client.write(op.lpn, payload)
        except ReproError:
            return False  # may or may not have been applied: stays unacked
        self.oracle.write_acked(token)
        return True

    async def stat_rtt_p50_ms(self, probes: int = 50) -> float:
        """Median STAT round trip on the idle server: wire and event loop,
        no device work queued in front of it."""
        samples = []
        for _ in range(probes):
            start = time.perf_counter()
            await self.clients[0].stat()
            samples.append(time.perf_counter() - start)
        return stats.median(samples) * 1e3

    async def read_back_failures(self) -> int:
        """Pages whose content, read through the server, is not allowed."""
        wrong = 0
        for lpn in range(self.ssd.logical_pages):
            data = (await self.clients[0].read(lpn)).tobytes()
            wrong += not self.oracle.final_matches(lpn, data)
        return wrong

    def crash_image_check(self) -> tuple[float, int, int]:
        """Recover a copy of the data directory into a fresh device.

        Nothing is in flight, so every acknowledged write is committed and
        the copy holds exactly what a ``kill -9`` now would leave.  Returns
        ``(recovery seconds, writes replayed, wrong pages)``.
        """
        image = tempfile.mkdtemp(prefix="crash-", dir=SCRATCH)
        try:
            shutil.copytree(self.data_dir, image, dirs_exist_ok=True)
            fresh = _make_ssd()
            store = DurableStore(
                image, fsync_policy=FSYNC_POLICY,
                checkpoint_every=CHECKPOINT_EVERY,
            )
            start = time.perf_counter()
            try:
                report = store.recover(fresh)
            except ReproError:
                # Recovery itself failed: no page can be trusted.
                return time.perf_counter() - start, 0, fresh.logical_pages
            finally:
                store.close()
            recovery_s = time.perf_counter() - start
            wrong = report.audit_failures
            for lpn in range(fresh.logical_pages):
                wrong += not self.oracle.final_matches(
                    lpn, fresh.read(lpn).tobytes()
                )
            return recovery_s, report.replayed_writes, wrong
        finally:
            shutil.rmtree(image, ignore_errors=True)


async def _set_up(run: Run, pace: Pace) -> tuple[Served, tuple[float, float]]:
    """Set the server up ``run.setup_repeats`` times; keep the last one.

    Returns it with the ``setup_s`` of the run: imports plus median set-up,
    as ``(measured, nominal)`` seconds.
    """
    imports = pace.imports(run.import_s)
    times = []
    for repeat in range(run.setup_repeats):
        start = pace.sample()
        served = Served(run.tracer)
        try:
            await served.start(run.seed)
        except BaseException:
            await served.stop()
            raise
        end = time.perf_counter()
        times.append((end - start, (end - start) * pace.factor(start, end)))
        if repeat < run.setup_repeats - 1:
            await served.stop()
            # Service, tasks and device reference each other in cycles; without
            # this, peak_rss_mb would count however many of the discarded
            # set-ups the collector had not got to yet.
            del served
            gc.collect()
    return served, total_setup(imports, times)


async def _keep_pace(pace: Pace) -> None:
    """Sample the reference kernel (and mark slices) until cancelled."""
    while True:
        pace.tick(time.perf_counter())
        await asyncio.sleep(REFERENCE_EVERY_S)


async def _paced(pace: Pace, load) -> list[loadgen.OpRecord]:
    """Run the ``load`` coroutine as one window of ``pace``."""
    pace.mark()
    ticker = asyncio.ensure_future(_keep_pace(pace))
    try:
        return await load
    finally:
        ticker.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await ticker
        pace.mark()


def _notes(served: Served, pace: Pace, **extra) -> dict:
    return {
        "reference_ms": pace.reference_ms(),
        "scheme": SCHEME, "constraint_length": CONSTRAINT_LENGTH,
        "geometry": SERVED_GEOMETRY, "utilization": SERVED_UTILIZATION,
        "logical_pages": served.ssd.logical_pages,
        "page_bits": SERVED_GEOMETRY["page_bits"],
        "dataword_bits": served.bits, "fsync_policy": FSYNC_POLICY,
        "checkpoint_every": CHECKPOINT_EVERY, "max_batch": MAX_BATCH,
        "connections": CONNECTIONS,
        "viterbi_backend": resolve_backend("auto").name,
        **extra,
    }


def _served_layers(
    served: Served,
    tracer: Tracer,
    window: Window,
    records: list[loadgen.OpRecord],
    counts: dict[str, float],
    rejected: int,
) -> dict[str, float]:
    """The per-layer metrics both served workloads share, in measured time."""
    ops = len(records)
    metrics, totals = layer_metrics(tracer, window, ops)
    metrics.update(counts)

    metrics["coding.viterbi_lanes_mean"] = lanes_mean(totals)
    metrics["coding.encode_p50_ms"] = one_lane_encode_p50_ms(totals)
    writes = matching(totals, "core.scheme_write")
    batch = [v for layer in writes for v in layer.values if v is not None]
    encoded = sum(layer.count for layer in writes) - len(batch) + sum(
        lanes for lanes, _ in batch
    )
    refused = sum(layer.failed for layer in writes) + sum(
        unwritable for _, unwritable in batch
    )
    metrics["core.unwritable_share"] = refused / encoded

    batches = [
        v for layer in matching(totals, "ssd.write_batch")
        for v in layer.values if v is not None
    ]
    metrics["server.batches_per_op"] = len(batches) / ops
    metrics["server.batch_size_mean"] = sum(batches) / len(batches)
    metrics["server.batch_size_max"] = float(max(batches))
    metrics["server.coalesced_share"] = (
        sum(size for size in batches if size > 1) / sum(batches)
    )
    busy_s = tracer.top_level_s(window.start, window.end, "repro-device")
    metrics["server.device_busy_share"] = busy_s / window.wall_s
    outstanding_s = stats.union_length((r.sent, r.done) for r in records)
    metrics["server.idle_ms_per_op"] = (
        max(0.0, outstanding_s - busy_s) * 1e3 / ops
    )
    metrics["server.busy_rejected"] = float(rejected)

    commits = matching(totals, "durability.commit")
    covered = [v for layer in commits for v in layer.values if v is not None]
    metrics["durability.records_per_commit"] = sum(covered) / len(covered)
    journal_bytes = sum(
        v for layer in matching(totals, "durability.encode_record")
        for v in layer.values if v is not None
    )
    host_writes = sum(1 for r in records if r.write and r.ok)
    metrics["durability.journal_bytes_per_host_byte"] = journal_bytes / (
        host_writes * served.bits / 8
    )
    metrics["durability.checkpoints"] = float(sum(
        layer.count for layer in matching(totals, "durability.checkpoint")
    ))
    return metrics


def _nominal_ms(
    pace: Pace, records: list[loadgen.OpRecord], write: bool
) -> list[float]:
    """Latencies of the successful reads or writes, in nominal ms."""
    return [
        r.latency_s * pace.factor(r.done) * 1e3
        for r in records if r.write == write and r.ok
    ]


async def _serve(run: Run, load, check, open_loop: bool, **loop_notes) -> Outcome:
    """One served run: set up, drive ``load(served)`` as the window, run
    ``check(served, pace)`` on the idle server, tear down, and report.

    ``check`` returns ``(wrong pages, notes, per-layer metrics)`` of its own.
    """
    tracer, traced = run.tracer, run.traced
    pace = Pace()
    served, setup_s = await _set_up(run, pace)
    try:
        stat_rtt_ms = await served.stat_rtt_p50_ms() if traced else 0.0
        before = stats_snapshot(served.ssd)
        rejected = served.service.stats.rejected
        with Window() as window:
            records = await _paced(pace, load(served))
        counts = device_counts(served.ssd, before, len(records))
        rejected = served.service.stats.rejected - rejected
        wrong_pages, check_notes, check_layers = await check(served, pace)
    finally:
        await served.stop()

    failed = sum(1 for r in records if not r.ok) + wrong_pages
    write_ms = _nominal_ms(pace, records, write=True)
    read_ms = _nominal_ms(pace, records, write=False)
    notes = _notes(
        served, pace, ops=len(records), reads=len(read_ms),
        write_p99_ms=stats.percentile(write_ms, 0.99), **loop_notes,
        **check_notes,
    )
    if read_ms:
        notes["read_p50_ms"] = stats.median(read_ms)
        notes["read_p99_ms"] = stats.percentile(read_ms, 0.99)
    if open_loop:
        notes["limit_ms"] = LATENCY_LIMIT_S * 1e3
        notes["over_limit_share"] = 1 - sum(
            1 for ms in write_ms if ms <= LATENCY_LIMIT_S * 1e3
        ) / len(records)
        notes["late_p95_ms"] = stats.percentile([
            (r.sent - r.due) * pace.factor(r.sent) for r in records
        ], 0.95) * 1e3
    if not traced:
        by_done = sorted(records, key=lambda r: r.done)
        metrics, notes["measured"] = end_to_end(
            setup_s, pace, [r.done for r in by_done],
            [(r.done, r.latency_s) for r in by_done if r.write and r.ok],
            open_loop=open_loop,
        )
    else:
        metrics = _served_layers(
            served, tracer, window, records, counts, rejected
        )
        metrics["server.stat_rtt_p50_ms"] = stat_rtt_ms
        metrics = nominal(metrics, pace.factor(window.start, window.end))
        metrics["client.write_p90_ms"] = stats.percentile(write_ms, 0.9)
        metrics["client.write_p99_ms"] = notes["write_p99_ms"]
        metrics["client.read_p50_ms"] = notes.get("read_p50_ms", 0.0)
        metrics["client.read_p99_ms"] = notes.get("read_p99_ms", 0.0)
        metrics["loadgen.over_limit_share"] = notes.get("over_limit_share", 0.0)
        metrics["loadgen.late_p95_ms"] = notes.get("late_p95_ms", 0.0)
        metrics.update(check_layers)
    return Outcome(
        attempted=len(records) + served.ssd.logical_pages, failed=failed,
        correct=failed == 0, metrics=metrics, notes=notes,
    )


def _mixed(run: Run):
    def load(served: Served):
        streams = [
            traced_ops(run.tracer, make_workload(
                "zipf", served.ssd.logical_pages, seed=run.seed + connection,
                read_fraction=0.3,
            ))
            for connection in range(CONNECTIONS)
        ]
        return loadgen.run_closed(served.send, streams, IN_FLIGHT, run.seconds)

    async def check(served: Served, pace: Pace):
        start = pace.sample()
        recovery_s, replayed, wrong_pages = served.crash_image_check()
        pace.sample()
        recovery_s *= pace.factor(start, start + recovery_s)
        return (
            wrong_pages,
            {"recovery_s": recovery_s, "replayed_writes": replayed},
            {"durability.recovery_s": recovery_s,
             "durability.replayed_writes": float(replayed)},
        )

    return _serve(
        run, load, check, open_loop=False, loop="closed", in_flight=IN_FLIGHT,
        workload="zipf read_fraction=0.3",
    )


def _open(run: Run):
    def load(served: Served):
        stream = traced_ops(run.tracer, make_workload(
            "uniform", served.ssd.logical_pages, seed=run.seed
        ))
        return loadgen.run_open(
            served.send, stream, CONNECTIONS, OPEN_RATE, run.seconds
        )

    async def check(served: Served, _pace: Pace):
        return await served.read_back_failures(), {}, {}

    return _serve(
        run, load, check, open_loop=True, loop="open", rate_per_s=OPEN_RATE,
        workload="uniform writes",
    )


def _run_served(workload, run: Run) -> Outcome:
    if run.traced:
        run.tracer.install()
    try:
        return asyncio.run(workload(run))
    finally:
        run.tracer.uninstall()


def run_served_mixed_journaled(run: Run) -> Outcome:
    """Closed loop, saturated: coalescer, batch Viterbi and group commit."""
    return _run_served(_mixed, run)


def run_served_open_write(run: Run) -> Outcome:
    """Open loop below saturation: wire, one encode and one fsync per write."""
    return _run_served(_open, run)


async def _ladder() -> dict[str, float]:
    served = Served(Tracer())
    results: dict[str, float] = {}
    try:
        await served.start(LADDER_SEED)
        stream = make_workload(
            "uniform", served.ssd.logical_pages, seed=LADDER_SEED
        )
        sustained = 0.0
        for rate in LADDER_RATES:
            records = await loadgen.run_open(
                served.send, stream, CONNECTIONS, rate, LADDER_SECONDS
            )
            by_due = sorted(records, key=lambda r: r.due)
            quarter = max(1, len(by_due) // 4)
            early = stats.median([r.latency_s for r in by_due[:quarter]])
            late = stats.median([r.latency_s for r in by_due[-quarter:]])
            p99 = stats.percentile(
                [r.latency_s if r.ok else float("inf") for r in records], 0.99
            )
            results[f"server.ladder_p99_ms.r{rate:.0f}"] = p99 * 1e3
            growing = late > LATENCY_LIMIT_S and late > 2 * early
            if p99 <= LATENCY_LIMIT_S and not growing:
                sustained = rate
        results["server.rate_under_limit_per_s"] = sustained
    finally:
        await served.stop()
    return results


def run_ladder() -> dict[str, float]:
    """Write p99 from the due time (measured, not nominal, milliseconds) at
    each of ``LADDER_RATES`` for ``LADDER_SECONDS`` each, and the highest
    rate that met the limit with no growing backlog."""
    return asyncio.run(_ladder())
