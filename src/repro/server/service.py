"""Asyncio block-storage service fronting an :class:`~repro.ssd.device.SSD`.

The service turns the offline device simulator into something that *serves
traffic*: concurrent TCP clients issue READ/WRITE/TRIM/STAT requests (see
:mod:`repro.server.protocol`) and the server drives one SSD instance on
their behalf.  Three mechanisms make that scale:

**Write coalescing.**  All device work funnels through one queue consumed
by a single device loop.  When the head of the queue is a WRITE, the loop
drains every *contiguously following* WRITE (up to ``max_batch``) and
issues them as one :meth:`~repro.ssd.device.SSD.write_batch` call — a
single lockstep Viterbi search amortized over every lane, exactly the
batched engine's sweet spot.  Contiguity preserves total order: a READ
never jumps ahead of the WRITEs queued before it, so once a client has an
acknowledgement its next read observes that write, regardless of which
connection it arrives on.

**A real async data path.**  Device calls (pure Python compute) run on a
dedicated single-worker thread, so the event loop keeps accepting frames
while the Viterbi search grinds — which is precisely what lets the queue
accumulate the next coalescable batch.  The single worker also makes the
SSD's single-threaded mutation model safe by construction.

**Durability (optional).**  Constructed with a
:class:`~repro.durability.DurableStore`, the service runs the write-ahead
discipline on its device thread: validated WRITE/TRIM mutations are
journaled *before* they touch the device, and one group commit per flush
makes the whole batch durable *before* any acknowledgement leaves the
process — so a ``kill -9`` at any instant loses no acknowledged write.
:meth:`StorageService.start` then begins by recovering the data directory
(checkpoint restore + journal replay + survivor audit) concurrently with
accepting connections: STAT is answered immediately from server-side state,
while data operations get the typed ``Status.RECOVERING`` error until
replay finishes, so clients see a fast typed signal instead of a hang.

**Admission control and backpressure.**  Two bounds protect the server:
a per-connection *credit window* (a connection with ``credit_window``
un-answered requests stops being read, pushing backpressure into the
client's TCP socket) and a global *queue depth*.  With the default
``admission="block"`` a full queue also pauses readers; with
``admission="reject"`` the service sheds load instead, answering
``Status.BUSY`` immediately so open-loop generators can measure the shed
rate.

**Multi-tenant QoS (optional).**  Connections declare a tenant with the
``HELLO`` opcode (undeclared connections are tenant 0).  When
``tenant_credit_window`` is set, each tenant additionally shares one
credit window across *all* of its connections: in reject mode a tenant
that exhausts its window gets ``Status.BUSY`` on the spot while other
tenants sail through; in block mode only the offender's readers pause.
That isolates a pipelining hog from well-behaved neighbours without
partitioning the device.  Per-tenant request/op/busy counts are kept in
``tenant_stats`` (exposed through STAT).  Once the device latches
end-of-life read-only mode every write is answered with the typed
``Status.READ_ONLY`` error while reads keep serving — the wire-level
version of the graceful-degradation contract.

**Accounting.**  Every event is counted once, in :class:`ServerStats`, the
``tenant_stats`` buckets and the device's own stats dataclasses.
:meth:`StorageService.publish_stats` absorbs what they gained since its
previous call into :mod:`repro.obs` (``server.*``, ``server.tenant<N>.*``,
``ftl.*``, ``flash.*``, ``faults.*``); the telemetry sidecar calls it before
each scrape and :meth:`StorageService.stop` calls it a last time.  Only
what has no dataclass goes to the registry directly: the
``server.queue_depth`` gauge, the ``server.batch_size``,
``server.request_seconds`` and ``server.queue_wait_seconds`` histograms,
and the per-request and per-flush spans.
"""

from __future__ import annotations

import asyncio
import os as _os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ConfigurationError,
    LogicalAddressError,
    OutOfSpaceError,
    ProgramFailedError,
    ProtocolError,
    ReadOnlyModeError,
    ReproError,
    UncorrectableReadError,
)
from repro.durability.store import DurableStore, RecoveryReport
from repro.obs import registry as _metrics
from repro.obs.registry import TIME_BUCKETS
from repro.obs.tracing import span as _span
from repro.server import protocol
from repro.server.protocol import (
    PROTO_VERSION,
    Opcode,
    Request,
    Response,
    Status,
)
from repro.ssd.device import SSD

__all__ = ["ServerConfig", "ServerStats", "StorageService"]

_QUEUE_DEPTH = _metrics.gauge("server.queue_depth")

#: Batch-size buckets: powers of two up to the largest sensible window.
BATCH_BUCKETS = tuple(float(2**k) for k in range(9))
_BATCH_SIZE = _metrics.histogram("server.batch_size", BATCH_BUCKETS)
_LATENCY = _metrics.histogram("server.request_seconds", TIME_BUCKETS)
_QUEUE_WAIT = _metrics.histogram("server.queue_wait_seconds", TIME_BUCKETS)

#: Most trace ids attached to one batch-level span (flush, fsync); larger
#: batches record a truncated list plus the true batch size.
_SPAN_TRACE_IDS = 32

#: Opcode -> the ServerStats field (and tenant bucket key) that counts it.
_OP_FIELDS = {
    Opcode.READ: "reads",
    Opcode.WRITE: "writes",
    Opcode.TRIM: "trims",
    Opcode.STAT: "stat_requests",
}

#: Queue sentinel that tells the device loop to exit.
_SHUTDOWN = object()


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the serving layer (device knobs live on the SSD itself)."""

    max_batch: int = 32         # WRITEs coalesced into one write_batch call
    queue_depth: int = 256      # global pending-request bound
    credit_window: int = 64     # per-connection un-answered request bound
    admission: str = "block"    # "block" = backpressure, "reject" = BUSY
    tenant_credit_window: int | None = None  # shared per-tenant bound

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be at least 1")
        if self.credit_window < 1:
            raise ConfigurationError("credit_window must be at least 1")
        if self.tenant_credit_window is not None \
                and self.tenant_credit_window < 1:
            raise ConfigurationError(
                "tenant_credit_window must be at least 1 (or None)"
            )
        if self.admission not in ("block", "reject"):
            raise ConfigurationError(
                f"admission must be 'block' or 'reject', got "
                f"{self.admission!r}"
            )

    def summary(self) -> dict:
        """The config block of STAT and of the sidecar's ``/debug/vars``."""
        return dict(self.__dict__)


@dataclass
class ServerStats:
    """Always-on service accounting (cheap ints; exposed through STAT)."""

    connections: int = 0
    requests: int = 0
    reads: int = 0
    writes: int = 0
    trims: int = 0
    stat_requests: int = 0
    errors: int = 0          # non-OK responses sent
    rejected: int = 0        # BUSY shed by admission control
    protocol_errors: int = 0  # connections dropped over framing violations
    batches: int = 0         # write_batch flushes issued
    coalesced_writes: int = 0  # writes that shared a flush with >= 1 other
    max_batch_size: int = 0
    hellos: int = 0          # tenant declarations received

    def summary(self) -> dict[str, int]:
        return dict(self.__dict__)


def _new_tenant_stats() -> dict[str, int]:
    """Fresh per-tenant accounting bucket (see ``StorageService._tenant``)."""
    return {
        "requests": 0,
        "reads": 0,
        "writes": 0,
        "trims": 0,
        "stat_requests": 0,
        "busy_rejected": 0,
        "connections": 0,
    }


class _Op:
    """One admitted request waiting for (or undergoing) device execution."""

    __slots__ = ("request", "conn", "arrival", "tenant", "tenant_credits")

    def __init__(
        self,
        request: Request,
        conn: "_Connection",
        tenant_credits: asyncio.Semaphore | None = None,
    ) -> None:
        self.request = request
        self.conn = conn
        self.arrival = time.perf_counter()
        self.tenant = conn.tenant
        self.tenant_credits = tenant_credits  # held until _finish, if any


class _Connection:
    """Per-connection reader state, response queue, and credit window."""

    __slots__ = ("reader", "writer", "credits", "tenant", "_out",
                 "_writer_task")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        credit_window: int,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.credits = asyncio.Semaphore(credit_window)
        self.tenant = 0  # until a HELLO declares otherwise
        self._out: asyncio.Queue = asyncio.Queue()
        self._writer_task = asyncio.create_task(self._write_loop())

    def respond(self, payload: bytes) -> None:
        """Queue one encoded response frame for transmission."""
        self._out.put_nowait(payload)

    async def _write_loop(self) -> None:
        try:
            while True:
                payload = await self._out.get()
                if payload is None:
                    break
                self.writer.write(payload)
                await self.writer.drain()
        except (ConnectionError, OSError):
            pass  # peer vanished; the read loop notices and cleans up

    async def close(self) -> None:
        self._out.put_nowait(None)
        try:
            await self._writer_task
        except asyncio.CancelledError:
            pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class StorageService:
    """TCP front end for one SSD; see the module docstring for the design.

    Usage::

        service = StorageService(ssd)
        await service.start(port=0)        # ephemeral port for tests
        ...                                # service.port is now bound
        await service.stop()

    or ``async with StorageService(ssd) as service: ...``.
    """

    def __init__(
        self,
        ssd: SSD,
        config: ServerConfig | None = None,
        store: DurableStore | None = None,
    ) -> None:
        self.ssd = ssd
        self.config = config or ServerConfig()
        self.store = store
        self.stats = ServerStats()
        self.tenant_stats: dict[int, dict[str, int]] = {}
        #: Totals as of the last :meth:`publish_stats`, by registry prefix.
        self._published: dict[str, dict[str, int]] = {}
        self._tenant_credits: dict[int, asyncio.Semaphore] = {}
        self.recovery_report: RecoveryReport | None = None
        self._server: asyncio.base_events.Server | None = None
        self._device_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._queue: asyncio.Queue | None = None
        self._connections: set[_Connection] = set()
        self._handler_tasks: set[asyncio.Task] = set()
        self._recovering = False
        self._recovery_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        if self._server is not None:
            raise ConfigurationError("service already started")
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-device"
        )
        if self.store is not None:
            # Recovery runs on the device thread concurrently with accepting
            # connections: the admission gate answers for the device until
            # replay finishes (STAT immediately, data ops -> RECOVERING).
            self._recovering = True
            self._recovery_task = asyncio.create_task(self._recover())
        self._device_task = asyncio.create_task(self._device_loop())
        self._server = await asyncio.start_server(self._handle, host, port)

    async def _recover(self) -> RecoveryReport:
        loop = asyncio.get_running_loop()
        try:
            self.recovery_report = await loop.run_in_executor(
                self._executor, self.store.recover, self.ssd
            )
            return self.recovery_report
        finally:
            self._recovering = False

    async def recovery_done(self) -> RecoveryReport | None:
        """Wait for startup recovery; re-raises its failure, if any.

        Returns ``None`` when the service has no durable store.  A
        :class:`~repro.errors.DurabilityError` here means the data
        directory could not be trusted (newer format, failed integrity
        check) — the caller should stop the service and surface the
        message.
        """
        if self._recovery_task is None:
            return None
        return await asyncio.shield(self._recovery_task)

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            raise ConfigurationError("service not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, finish queued work, release all resources."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        # Retire the connection handlers before the device loop: a handler
        # parked on a full queue (block mode) would otherwise never wake.
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            await asyncio.gather(*self._handler_tasks, return_exceptions=True)
        self._handler_tasks.clear()
        if self._recovery_task is not None:
            # Recovery occupies the device thread; let it finish (it cannot
            # be interrupted mid-replay) before the loop shuts down.
            await asyncio.gather(self._recovery_task, return_exceptions=True)
            self._recovery_task = None
        await self._queue.put(_SHUTDOWN)
        await self._device_task
        self._device_task = None
        for conn in list(self._connections):
            await conn.close()
        self._connections.clear()
        self._executor.shutdown(wait=True)
        self._executor = None
        self.publish_stats()

    def publish_stats(self) -> None:
        """Absorb what the stats gained since the last call into the registry.

        Covers the device (:meth:`~repro.ssd.device.SSD.counter_totals`),
        :attr:`stats` and the tenant buckets; ``max_batch_size`` is a
        maximum, not a count, and stays out.  While the registry is
        disabled nothing is marked as published, so the first call after it
        is enabled carries everything counted until then.  Runs on the
        event-loop thread (sidecar collector, :meth:`stop`).
        """
        registry = _metrics.get_registry()
        if not registry.enabled:
            return
        totals = self.ssd.counter_totals()
        totals["server"] = self.stats.summary()
        del totals["server"]["max_batch_size"]
        for tenant, bucket in self.tenant_stats.items():
            totals[f"server.tenant{tenant}"] = dict(bucket)
        for prefix, now in totals.items():
            before = self._published.get(prefix, {})
            registry.absorb(prefix, {
                name: value - before.get(name, 0)
                for name, value in now.items()
            })
        self._published = totals

    async def __aenter__(self) -> "StorageService":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer, self.config.credit_window)
        self._connections.add(conn)
        self._handler_tasks.add(asyncio.current_task())
        self.stats.connections += 1
        try:
            while True:
                body = await protocol.read_frame(reader)
                if body is None:
                    break
                try:
                    request = protocol.decode_request(body)
                except ProtocolError as exc:
                    # The frame boundary held, so the stream stays usable:
                    # answer with a typed error instead of disconnecting.
                    self._send_error(conn, _request_id_of(body),
                                     Status.BAD_REQUEST, str(exc))
                    continue
                if request.opcode is Opcode.HELLO:
                    # Pure serving-layer state: never queued to the device.
                    conn.tenant = request.tenant
                    self.stats.hellos += 1
                    self._tenant(request.tenant)["connections"] += 1
                    negotiated = min(request.version, PROTO_VERSION)
                    conn.respond(protocol.encode_response(
                        Response(Status.OK, request.request_id,
                                 version=negotiated)
                    ))
                    continue
                await self._admit(conn, request)
        except ProtocolError:
            # Framing is broken (truncated/oversized frame): the stream
            # cannot be re-synchronized, so the connection must die.
            self.stats.protocol_errors += 1
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # stop() retires handlers; fall through to cleanup
        finally:
            self._handler_tasks.discard(asyncio.current_task())
            self._connections.discard(conn)
            await conn.close()

    async def _admit(self, conn: _Connection, request: Request) -> None:
        """Admission control: credit window first, then the global queue."""
        await conn.credits.acquire()  # pauses this reader at the window cap
        if self._recovering:
            # The device thread is replaying the journal.  STAT answers from
            # server-side state alone (no device access, so no race with the
            # replay); everything else gets the typed RECOVERING error
            # instead of silently queueing behind an unbounded replay.
            if request.opcode is Opcode.STAT:
                self._finish(
                    _Op(request, conn),
                    protocol.encode_response(Response(
                        Status.OK, request.request_id,
                        stat=self._recovering_stat(),
                    )),
                )
            else:
                conn.credits.release()
                self._send_error(
                    conn, request.request_id, Status.RECOVERING,
                    "server is replaying its journal; retry shortly",
                )
            return
        tenant_credits = self._tenant_window(conn.tenant)
        if tenant_credits is not None:
            if self.config.admission == "reject" and tenant_credits.locked():
                # The tenant's shared window is exhausted: shed *this*
                # tenant's request while its neighbours stay unaffected.
                conn.credits.release()
                self.stats.rejected += 1
                self._tenant(conn.tenant)["busy_rejected"] += 1
                self._send_error(
                    conn, request.request_id, Status.BUSY,
                    f"tenant {conn.tenant} credit window is full",
                )
                return
            # Block mode: only this tenant's readers park here; other
            # tenants' connections keep being read.
            await tenant_credits.acquire()
        op = _Op(request, conn, tenant_credits)
        if self.config.admission == "reject":
            try:
                self._queue.put_nowait(op)
            except asyncio.QueueFull:
                conn.credits.release()
                if tenant_credits is not None:
                    tenant_credits.release()
                self.stats.rejected += 1
                self._send_error(conn, request.request_id, Status.BUSY,
                                 "server queue is full")
                return
        else:
            await self._queue.put(op)  # blocks the reader: backpressure
        _QUEUE_DEPTH.set(self._queue.qsize())

    def _tenant(self, tenant: int) -> dict[str, int]:
        """Get-or-create one tenant's accounting bucket."""
        bucket = self.tenant_stats.get(tenant)
        if bucket is None:
            bucket = self.tenant_stats[tenant] = _new_tenant_stats()
        return bucket

    def _tenant_window(self, tenant: int) -> asyncio.Semaphore | None:
        """The tenant's shared credit window (None when QoS is off)."""
        window = self.config.tenant_credit_window
        if window is None:
            return None
        sem = self._tenant_credits.get(tenant)
        if sem is None:
            sem = self._tenant_credits[tenant] = asyncio.Semaphore(window)
        return sem

    def _send_error(
        self, conn: _Connection, request_id: int, status: Status, message: str
    ) -> None:
        self.stats.errors += 1
        conn.respond(protocol.encode_response(
            Response(status, request_id, message=message)
        ))

    # -- device loop ---------------------------------------------------------

    async def _device_loop(self) -> None:
        """Single consumer of the op queue; owns all SSD access."""
        loop = asyncio.get_running_loop()
        pending = None
        while True:
            op = pending if pending is not None else await self._queue.get()
            pending = None
            if op is _SHUTDOWN:
                break
            if op.request.opcode is Opcode.WRITE:
                batch = [op]
                while len(batch) < self.config.max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is _SHUTDOWN or nxt.request.opcode is not Opcode.WRITE:
                        pending = nxt  # defer: order must be preserved
                        break
                    batch.append(nxt)
                _QUEUE_DEPTH.set(self._queue.qsize())
                replies = await loop.run_in_executor(
                    self._executor, self._execute_write_batch, batch
                )
            else:
                _QUEUE_DEPTH.set(self._queue.qsize())
                replies = await loop.run_in_executor(
                    self._executor, self._execute_one, op
                )
            for finished, payload in replies:
                self._finish(finished, payload)

    def _finish(self, op: _Op, payload: bytes) -> None:
        """Account one completed request and hand its reply to the writer."""
        _LATENCY.observe(time.perf_counter() - op.arrival)
        self.stats.requests += 1
        field = _OP_FIELDS[op.request.opcode]
        setattr(self.stats, field, getattr(self.stats, field) + 1)
        bucket = self._tenant(op.tenant)
        bucket["requests"] += 1
        bucket[field] += 1
        if op.tenant_credits is not None:
            op.tenant_credits.release()
        op.conn.credits.release()
        op.conn.respond(payload)

    # -- device-side execution (runs on the single worker thread) ------------

    def _note_queue_wait(self, op: _Op) -> None:
        """Record how long one op sat queued before the device touched it.

        Always feeds the ``server.queue_wait_seconds`` histogram; wire-traced
        requests additionally get a ``server.queue_wait`` trace event so the
        client's trace id covers its admission delay.
        """
        registry = _metrics.get_registry()
        if not registry.enabled:
            return
        waited = time.perf_counter() - op.arrival
        _QUEUE_WAIT.observe(waited)
        trace_id = op.request.trace_id
        if trace_id:
            registry.record_event({
                "name": "server.queue_wait",
                "span_id": registry.next_span_id(),
                "parent_id": None,
                "pid": _os.getpid(),
                "ts": time.time(),
                "dur": waited,
                "trace_id": trace_id,
                "attrs": {"op": op.request.opcode.name,
                          "lpn": op.request.lpn},
            })

    @staticmethod
    def _batch_trace_ids(ops: list[_Op]) -> list[int]:
        """The wire trace ids present in a batch (bounded; see _SPAN_TRACE_IDS)."""
        ids = [op.request.trace_id for op in ops if op.request.trace_id]
        return ids[:_SPAN_TRACE_IDS]

    def _execute_write_batch(self, batch: list[_Op]) -> list[tuple[_Op, bytes]]:
        """Flush a contiguous run of WRITEs as one coalesced device call."""
        self.stats.batches += 1
        _BATCH_SIZE.observe(len(batch))
        if len(batch) > 1:
            self.stats.coalesced_writes += len(batch)
        self.stats.max_batch_size = max(self.stats.max_batch_size, len(batch))
        dataword_bits = self.ssd.logical_page_bits
        logical_pages = self.ssd.logical_pages
        results: dict[int, Response] = {}
        lanes: list[_Op] = []
        for op in batch:
            self._note_queue_wait(op)
        batch_traces = self._batch_trace_ids(batch)
        with _span(
            "server.flush", batch=len(batch), trace_ids=batch_traces
        ) as flush_event:
            for op in batch:
                request = op.request
                if not 0 <= request.lpn < logical_pages:
                    results[id(op)] = Response(
                        Status.OUT_OF_RANGE, request.request_id,
                        message=f"LPN {request.lpn} outside "
                                f"[0, {logical_pages})",
                    )
                elif request.data.shape != (dataword_bits,):
                    results[id(op)] = Response(
                        Status.BAD_REQUEST, request.request_id,
                        message=f"logical pages hold {dataword_bits} bits, "
                                f"got {request.data.shape[0]}",
                    )
                else:
                    lanes.append(op)
            if lanes and self.store is not None:
                # Write-ahead: journal every validated lane before the
                # device sees it.  The group commit below makes the whole
                # batch durable with one fsync before any reply is released.
                for op in lanes:
                    self.store.journal_write(op.request.lpn, op.request.data)
            if lanes:
                try:
                    self.ssd.write_batch(
                        [op.request.lpn for op in lanes],
                        np.stack([op.request.data for op in lanes]),
                    )
                except (ReadOnlyModeError, OutOfSpaceError,
                        ProgramFailedError) as exc:
                    # The device just latched (or already was) read-only.
                    # Individual lane outcomes of a failed flush are not
                    # reported by the FTL, so every lane gets the typed
                    # end-of-life error; acknowledged earlier writes are
                    # unaffected and stay readable.
                    for op in lanes:
                        results[id(op)] = Response(
                            Status.READ_ONLY, op.request.request_id,
                            message=str(exc),
                        )
                except ReproError as exc:
                    for op in lanes:
                        results[id(op)] = Response(
                            Status.INTERNAL, op.request.request_id,
                            message=str(exc),
                        )
                else:
                    for op in lanes:
                        results[id(op)] = Response(
                            Status.OK, op.request.request_id
                        )
            if self.store is not None:
                self._commit_batch(batch_traces)
            replies = []
            ok = 0
            for op in batch:
                response = results[id(op)]
                if response.status is Status.OK:
                    ok += 1
                else:
                    self.stats.errors += 1
                with _span(
                    "server.request", op="WRITE", lpn=op.request.lpn,
                    status=response.status.name,
                    trace_id=op.request.trace_id or None,
                ):
                    replies.append((op, protocol.encode_response(response)))
            if flush_event is not None:
                flush_event["attrs"]["ok"] = ok
        return replies

    def _commit_batch(self, trace_ids: list[int] | None = None) -> None:
        """Group-commit the journal and let the checkpoint cadence run.

        Runs on the device thread after applying a flush and before its
        replies are released — the commit-before-acknowledge half of the
        write-ahead contract.  The end-of-life latch is journaled here too,
        so replay re-latches a dead device before serving it.  The fsync is
        spanned with the batch's wire trace ids, so a client trace reaches
        all the way to the durability boundary.
        """
        if self.ssd.read_only:
            self.store.note_read_only()
        with _span("durability.fsync", trace_ids=trace_ids or []):
            self.store.commit()
        self.store.maybe_checkpoint(self.ssd)

    def _execute_one(self, op: _Op) -> list[tuple[_Op, bytes]]:
        """Execute one non-WRITE request on the device thread."""
        request = op.request
        journaled = (
            self.store is not None
            and request.opcode is Opcode.TRIM
            and 0 <= request.lpn < self.ssd.logical_pages
        )
        self._note_queue_wait(op)
        if journaled:
            self.store.journal_trim(request.lpn)
        with _span(
            "server.request", op=request.opcode.name, lpn=request.lpn,
            trace_id=request.trace_id or None,
        ) as event:
            response = self._apply(request)
            if event is not None:
                event["attrs"]["status"] = response.status.name
        if journaled:
            self._commit_batch(
                [request.trace_id] if request.trace_id else []
            )
        if response.status is not Status.OK:
            self.stats.errors += 1
        return [(op, protocol.encode_response(response))]

    def _apply(self, request: Request) -> Response:
        try:
            if request.opcode is Opcode.READ:
                data = self.ssd.read(request.lpn)
                return Response(Status.OK, request.request_id, data=data)
            if request.opcode is Opcode.TRIM:
                self.ssd.trim(request.lpn)
                return Response(Status.OK, request.request_id)
            return Response(Status.OK, request.request_id, stat=self._stat())
        except LogicalAddressError as exc:
            return Response(Status.OUT_OF_RANGE, request.request_id,
                            message=str(exc))
        except ReadOnlyModeError as exc:
            return Response(Status.READ_ONLY, request.request_id,
                            message=str(exc))
        except UncorrectableReadError as exc:
            return Response(Status.UNCORRECTABLE, request.request_id,
                            message=str(exc))
        except ReproError as exc:
            return Response(Status.INTERNAL, request.request_id,
                            message=str(exc))

    def health(self) -> dict:
        """Typed health summary for the obs sidecar's ``/healthz``/``/readyz``.

        Built from serving-layer state plus cheap device attribute reads;
        while recovery owns the device thread the SSD itself is left alone
        (same discipline as :meth:`_recovering_stat`).
        """
        recovering = self._recovering
        info: dict = {
            "status": "recovering" if recovering else "ok",
            "recovering": recovering,
            "read_only": False,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "connections": len(self._connections),
            "requests": self.stats.requests,
            "errors": self.stats.errors,
            "rejected": self.stats.rejected,
        }
        if not recovering:
            info["read_only"] = bool(self.ssd.read_only)
            info["lifetime_state"] = self.ssd.lifetime_state
            if info["read_only"]:
                info["status"] = "read_only"
        if self.tenant_stats:
            info["tenants"] = {
                str(tenant): {
                    "requests": bucket["requests"],
                    "busy_rejected": bucket["busy_rejected"],
                }
                for tenant, bucket in sorted(self.tenant_stats.items())
            }
        if self.store is not None:
            info["durability"] = {
                "fsync_lag_seconds": self.store.fsync_lag_seconds,
                "recovery_progress": self.store.recovery_progress,
            }
        return info

    def _recovering_stat(self) -> dict:
        """STAT payload served while recovery owns the device thread.

        Built from serving-layer state only — touching the SSD here would
        race the replay — so clients polling STAT can watch for
        ``recovering`` to clear without tripping over RECOVERING errors.
        """
        return {
            "recovering": True,
            "server": self.stats.summary(),
        }

    def _durability_stat(self) -> dict:
        info: dict = {
            "fsync_policy": self.store.fsync_policy,
            "checkpoint_every": self.store.checkpoint_every,
        }
        if self.recovery_report is not None:
            report = self.recovery_report
            info["recovery"] = {
                "fresh": report.fresh,
                "checkpoint_seq": report.checkpoint_seq,
                "replayed_writes": report.replayed_writes,
                "replayed_trims": report.replayed_trims,
                "skipped_applies": report.skipped_applies,
                "torn_bytes_discarded": report.torn_bytes_discarded,
                "audited_pages": report.audited_pages,
                "audit_failures": report.audit_failures,
            }
        return info

    def _stat(self) -> dict:
        """The STAT payload: device health + server accounting."""
        ssd = self.ssd
        payload = {
            "scheme": ssd.scheme_name,
            "logical_pages": ssd.logical_pages,
            "dataword_bits": ssd.logical_page_bits,
            "lifetime_state": ssd.lifetime_state,
            "read_only": ssd.read_only,
            "wear_spread": ssd.wear_spread(),
            "ftl": ssd.ftl.stats.summary(),
            "server": self.stats.summary(),
            "config": self.config.summary(),
        }
        if self.tenant_stats:
            payload["tenants"] = {
                str(tenant): dict(bucket)
                for tenant, bucket in sorted(self.tenant_stats.items())
            }
        payload["recovering"] = False
        if self.store is not None:
            payload["durability"] = self._durability_stat()
        return payload


def _request_id_of(body: bytes) -> int:
    """Best-effort request-id extraction from a malformed request body."""
    if len(body) >= 5:
        return int.from_bytes(body[1:5], "big")
    return 0
