"""Closed- and open-loop load generators over :mod:`repro.workload` streams.

* :func:`run_closed` — each connection keeps ``in_flight`` requests
  outstanding, so a slow server receives less load.  Latency runs from
  the send.
* :func:`run_open` — requests go out on a fixed schedule whether or not
  earlier ones completed.  Latency runs from the time a request was
  *due*, so a stall is charged to every request scheduled behind it (no
  coordinated omission); ``sent - due`` is how late the generator ran.

Both drive an abstract ``send(connection, op)`` and end when their stream
does; :func:`run_closed_loop` and :func:`run_open_loop` run them against a
server and publish the counts as ``loadgen.*``/``loadgen.tenant<N>.*``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import math
import time
from collections import Counter
from collections.abc import Awaitable, Callable, Iterator
from dataclasses import dataclass

from repro.errors import ConfigurationError, ReadOnlyModeError, ReproError
from repro.errors import ServerBusyError
from repro.obs import registry as _metrics
from repro.obs.tracing import span as _span
from repro.server.client import DEFAULT_CONNECT_TIMEOUT, StorageClient
from repro.workload import Op, OpKind, derive_child_seed, make_workload
from repro.workload import payload_for

__all__ = ["LoadgenResult", "OpRecord", "TenantResult", "run_closed",
           "run_closed_loop", "run_open", "run_open_loop", "summarise"]


#: ``send(connection, op)`` returns True on success, else False or the
#: class of the typed error the request failed with.
Send = Callable[[int, Op], Awaitable["bool | type[ReproError]"]]


@dataclass(frozen=True)
class OpRecord:
    """One completed request; times are ``time.perf_counter`` readings."""

    op: Op
    due: float   # open loop: scheduled send time; closed loop: == sent
    sent: float
    done: float
    outcome: bool | type[ReproError]  # what ``send`` returned

    @property
    def ok(self) -> bool:
        return self.outcome is True

    @property
    def write(self) -> bool:
        return self.op.kind is OpKind.WRITE

    @property
    def latency_s(self) -> float:
        return self.done - self.due


async def run_closed(
    send: Send, streams: list[Iterator[Op]], in_flight: int, seconds: float
) -> list[OpRecord]:
    """Drive ``len(streams)`` connections until ``seconds`` have passed.

    Connection ``i`` draws from ``streams[i]``; its ``in_flight`` workers
    share that stream and stop when it ends.
    """
    records: list[OpRecord] = []
    deadline = time.perf_counter() + seconds

    async def worker(connection: int) -> None:
        stream = streams[connection]
        while time.perf_counter() < deadline and (op := next(stream, None)):
            sent = time.perf_counter()
            outcome = await send(connection, op)
            records.append(
                OpRecord(op, sent, sent, time.perf_counter(), outcome)
            )

    await asyncio.gather(*(worker(connection)
                           for connection in range(len(streams))
                           for _ in range(in_flight)))
    return records


async def run_open(
    send: Send, stream: Iterator[Op], connections: int, rate: float,
    seconds: float,
) -> list[OpRecord]:
    """Send ``rate`` requests per second for ``seconds``, or until
    ``stream`` ends, then drain."""
    records: list[OpRecord] = []
    total = max(1, round(rate * seconds))
    start = time.perf_counter()

    async def one(connection: int, op: Op, due: float, sent: float) -> None:
        outcome = await send(connection, op)
        records.append(OpRecord(op, due, sent, time.perf_counter(), outcome))

    tasks = []
    for index, op in zip(range(total), stream):
        due = start + index / rate
        # Always yield, even when behind schedule: the tasks created so far
        # only start, and replies are only read, while this loop is parked.
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        tasks.append(asyncio.ensure_future(
            one(index % connections, op, due, time.perf_counter())
        ))
    await asyncio.gather(*tasks)
    return records


@dataclass(frozen=True, kw_only=True)
class _Summary:
    """Counts and exact latency percentiles of a set of requests."""

    ops: int = 0     # completed requests (any outcome)
    reads: int = 0   # reads, writes and trims count successes only
    writes: int = 0
    trims: int = 0
    errors: int = 0  # typed failures other than BUSY
    busy: int = 0    # admission-control (BUSY) rejections
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    max_ms: float = 0.0


@dataclass(frozen=True, kw_only=True)
class TenantResult(_Summary):
    """One tenant's requests; a tenant with none reports zeros."""

    tenant: int


@dataclass(frozen=True, kw_only=True)
class LoadgenResult(_Summary):
    """Outcome of one load-generation run (picklable primitives only)."""

    mode: str  # "closed" or "open"
    clients: int
    wall_seconds: float
    achieved_iops: float
    offered_iops: float | None = None  # open loop only (the schedule's rate)
    per_tenant: tuple[TenantResult, ...] = ()


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Exact sample percentile (nearest-rank) of an ascending list."""
    if not sorted_ms:
        return 0.0
    return sorted_ms[max(1, math.ceil(q * len(sorted_ms))) - 1]


def summarise(
    records: list[OpRecord], *, mode: str, clients: int, wall: float,
    offered: float | None = None, tenants: int = 1,
) -> LoadgenResult:
    """Totals of ``records`` and one row for each tenant ``0..tenants-1``,
    including tenants that completed nothing."""

    def summary(subset: list[OpRecord]) -> dict:
        ms = sorted(record.latency_s * 1e3 for record in subset)
        kinds = Counter(record.op.kind for record in subset if record.ok)
        busy = sum(record.outcome is ServerBusyError for record in subset)
        return dict(
            ops=len(ms), reads=kinds[OpKind.READ], writes=kinds[OpKind.WRITE],
            trims=kinds[OpKind.TRIM], busy=busy,
            errors=sum(not record.ok for record in subset) - busy,
            p50_ms=_percentile(ms, 0.50), p95_ms=_percentile(ms, 0.95),
            p99_ms=_percentile(ms, 0.99),
            mean_ms=sum(ms) / len(ms) if ms else 0.0,
            max_ms=ms[-1] if ms else 0.0,
        )

    rows = tuple(
        TenantResult(tenant=tenant, **summary(
            [record for record in records if record.op.tenant == tenant]
        ))
        for tenant in range(tenants)
    )
    return LoadgenResult(
        mode=mode, clients=clients, wall_seconds=wall,
        achieved_iops=len(records) / wall if wall > 0 else 0.0,
        offered_iops=offered, per_tenant=rows, **summary(records),
    )


async def _run(
    host: str, port: int, timeout: float | None, tenant_ids: list[int],
    read_fraction: float, workload_kwargs: dict,
    loop: Callable[..., Awaitable[list[OpRecord]]], **summary,
) -> LoadgenResult:
    """Time ``loop(send, build, read_only)`` over one connection per entry
    of ``tenant_ids`` (HELLO-ing it); summarise and publish the records.

    ``build(name, seed=...)`` makes a workload over the server's pages.
    A READ_ONLY reply puts the connection in ``read_only``, to end its
    stream: the device is dead for writes.
    """
    if not 0 <= read_fraction <= 1:
        raise ConfigurationError("read_fraction must lie in [0, 1]")
    if read_fraction:
        workload_kwargs = dict(workload_kwargs, read_fraction=read_fraction)
    async with await StorageClient.connect(host, port, timeout=timeout) as c:
        info = await c.stat()
    bits, read_only = info["dataword_bits"], set()
    build = functools.partial(
        make_workload, logical_pages=info["logical_pages"], **workload_kwargs
    )

    async def send(connection: int, op: Op) -> bool | type[ReproError]:
        client = connections[connection]
        try:
            if op.kind is OpKind.READ:
                await client.read(op.lpn)
            elif op.kind is OpKind.TRIM:
                await client.trim(op.lpn)
            else:
                await client.write(op.lpn, payload_for(op, bits))
        except ReproError as error:
            if isinstance(error, ReadOnlyModeError):
                read_only.add(connection)
            return type(error)
        return True

    with _span("loadgen.run", **summary):
        async with contextlib.AsyncExitStack() as stack:
            connections = [
                await stack.enter_async_context(await StorageClient.connect(
                    host, port, tenant=tenant, timeout=timeout
                ))
                for tenant in tenant_ids
            ]
            running = loop(send, build, read_only)
            start = time.perf_counter()
            records = await running
            wall = time.perf_counter() - start
    result = summarise(records, wall=wall, **summary)
    registry = _metrics.get_registry()
    for prefix, row in [("loadgen", result)] + [
        (f"loadgen.tenant{row.tenant}", row) for row in result.per_tenant
    ]:
        registry.absorb(prefix, {
            "requests": row.ops, "errors": row.errors, "busy": row.busy,
        })
    return result


async def run_closed_loop(
    host: str, port: int, *, clients: int = 4, ops_per_client: int = 100,
    workload: str = "uniform", read_fraction: float = 0.0, seed: int = 0,
    tenants: int = 1, connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
    **workload_kwargs,
) -> LoadgenResult:
    """``clients`` connections, one request outstanding each, until each
    sent ``ops_per_client`` or had a READ_ONLY reply.  With ``tenants=N``
    client ``i`` is tenant ``i % N`` and replays child stream ``i`` (see
    :func:`~repro.workload.mixed.derive_child_seed`)."""
    if ops_per_client < 1 or not 1 <= tenants <= clients:
        raise ConfigurationError("need an op per client, and tenants in "
                                 "[1, clients] (each tenant needs a client)")

    def stream(index: int, build, read_only: set[int]) -> Iterator[Op]:
        if tenants > 1:
            ops = build(workload, seed=derive_child_seed(seed, index),
                        tenant=index % tenants)
        else:
            ops = build(workload, seed=seed + index)
        ops = itertools.islice(ops, ops_per_client)
        return itertools.takewhile(lambda _: index not in read_only, ops)

    def loop(send: Send, build, read_only: set[int]):
        streams = [stream(i, build, read_only) for i in range(clients)]
        return run_closed(send, streams, 1, math.inf)

    return await _run(
        host, port, connect_timeout, [i % tenants for i in range(clients)],
        read_fraction, workload_kwargs, loop,
        mode="closed", clients=clients, tenants=tenants,
    )


async def run_open_loop(
    host: str, port: int, *, rate: float, total_ops: int = 100,
    workload: str = "uniform", read_fraction: float = 0.0, seed: int = 0,
    tenants: int = 1, connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
    **workload_kwargs,
) -> LoadgenResult:
    """Issue ``total_ops`` requests at ``rate`` per second, pipelined;
    latency includes the schedule lag.  With ``tenants=N`` the schedule is
    one ``MixedWorkload`` and each op goes out on its tenant's connection,
    so per-tenant QoS (credit windows, BUSY shedding) hits the offender."""
    if rate <= 0 or total_ops < 1 or tenants < 1:
        raise ConfigurationError("need a positive rate, ops and tenants")

    def loop(send: Send, build, _read_only: set[int]):
        if tenants > 1:
            ops = build("mixed", seed=seed, base=workload, tenants=tenants)
        else:
            ops = build(workload, seed=seed)
        return run_open(
            lambda _connection, op: send(op.tenant, op),
            itertools.islice(ops, total_ops), tenants, rate, total_ops / rate,
        )

    return await _run(
        host, port, connect_timeout, list(range(tenants)),
        read_fraction, workload_kwargs, loop,
        mode="open", clients=tenants, offered=rate, tenants=tenants,
    )
