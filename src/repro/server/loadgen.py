"""Open- and closed-loop load generators with latency percentiles.

Rewriting-code behavior is workload-dependent, so the generators consume
the same typed op streams (:class:`~repro.workload.ops.Op`) the offline
simulator runs, built from the central :mod:`repro.workload` registry —
the identical ``WorkloadSpec`` replayed here and in
:func:`~repro.ssd.simulator.run_until_death` produces the identical op
sequence, payloads included (payloads derive from ``op.data_seed``, not
from generator-local randomness).

Two loop disciplines, the standard pair from storage benchmarking:

* **closed loop** — ``clients`` connections, each with exactly one request
  outstanding; offered load adapts to service capacity.  Concurrency is
  the knob; the coalescer sees up to ``clients`` writes per flush.
* **open loop** — requests are issued on a fixed schedule (``rate`` per
  second) regardless of completions, so queueing delay shows up in the
  tail latencies instead of silently throttling the generator (avoiding
  coordinated omission).  Against a server in ``admission="reject"`` mode
  the shed requests are counted as ``busy``.

Both loops are multi-tenant aware (``tenants=N``): closed-loop client
``i`` drives tenant ``i % N`` with the same
:func:`~repro.workload.mixed.derive_child_seed` streams a simulator-side
:class:`~repro.workload.mixed.MixedWorkload` would interleave; the open
loop drives one ``MixedWorkload`` schedule through one HELLO-tagged
connection per tenant, dispatching each op to its tenant's connection.
Results carry per-tenant latency percentiles (:class:`TenantResult`), so
QoS isolation — whose p99 degrades, whose BUSY count climbs — is measured
per tenant, not averaged away.

Latencies are recorded per request and reported as exact sample
percentiles (p50/p95/p99) plus achieved IOPS; the same numbers are also
published to :mod:`repro.obs` (``loadgen.*`` and per-tenant
``loadgen.tenant<N>.*``) so ``--metrics-out`` exports them.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ConfigurationError,
    ConnectionLostError,
    ReadOnlyModeError,
    ReproError,
    ServerBusyError,
)
from repro.obs import registry as _metrics
from repro.obs.registry import TIME_BUCKETS
from repro.obs.tracing import span as _span
from repro.server.client import DEFAULT_CONNECT_TIMEOUT, StorageClient
from repro.workload import (
    WORKLOADS,
    Op,
    OpKind,
    Workload,
    derive_child_seed,
    make_workload,
    payload_for,
)

__all__ = [
    "WORKLOADS",
    "LoadgenResult",
    "TenantResult",
    "make_workload",
    "run_closed_loop",
    "run_open_loop",
]

_LG_REQUESTS = _metrics.counter("loadgen.requests")
_LG_ERRORS = _metrics.counter("loadgen.errors")
_LG_BUSY = _metrics.counter("loadgen.busy")
_LG_LATENCY = _metrics.histogram("loadgen.latency_seconds", TIME_BUCKETS)


@dataclass(frozen=True)
class TenantResult:
    """One tenant's slice of a load-generation run.

    A tenant that completed zero requests reports all-zero counts and
    percentiles (never raises): an idle tenant is a legitimate outcome of
    a weighted mix, and sweeps aggregate these rows mechanically.
    """

    tenant: int
    ops: int = 0
    reads: int = 0
    writes: int = 0
    trims: int = 0
    errors: int = 0
    busy: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0
    max_ms: float = 0.0


@dataclass(frozen=True)
class LoadgenResult:
    """Outcome of one load-generation run (picklable primitives only)."""

    mode: str              # "closed" or "open"
    clients: int
    ops: int               # completed requests (any status)
    reads: int
    writes: int
    errors: int            # typed failures other than BUSY
    busy: int              # admission-control rejections observed
    wall_seconds: float
    achieved_iops: float
    offered_iops: float | None  # open loop only (the schedule's rate)
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    trims: int = 0
    per_tenant: tuple[TenantResult, ...] = ()

    def summary_line(self) -> str:
        offered = (
            f" offered={self.offered_iops:.0f}/s"
            if self.offered_iops is not None else ""
        )
        line = (
            f"{self.mode} loop: {self.ops} ops, {self.clients} clients,"
            f"{offered} {self.achieved_iops:.0f} IOPS, "
            f"p50={self.p50_ms:.2f}ms p95={self.p95_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms"
            + (f", {self.busy} busy" if self.busy else "")
            + (f", {self.errors} errors" if self.errors else "")
        )
        rows = self.per_tenant if len(self.per_tenant) > 1 else ()
        for row in rows:
            line += (
                f"\n  tenant {row.tenant}: {row.ops} ops, "
                f"p50={row.p50_ms:.2f}ms p99={row.p99_ms:.2f}ms"
                + (f", {row.busy} busy" if row.busy else "")
                + (f", {row.errors} errors" if row.errors else "")
            )
        return line


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Exact sample percentile (nearest-rank) of an ascending list."""
    if not sorted_ms:
        return 0.0
    rank = max(1, int(np.ceil(q * len(sorted_ms))))
    return sorted_ms[rank - 1]


class _TenantTally:
    """One tenant's accumulator, with its obs instruments pre-resolved."""

    def __init__(self, tenant: int) -> None:
        self.tenant = tenant
        self.latencies: list[float] = []  # seconds
        self.reads = 0
        self.writes = 0
        self.trims = 0
        self.errors = 0
        self.busy = 0
        prefix = f"loadgen.tenant{tenant}"
        self._requests = _metrics.counter(f"{prefix}.requests")
        self._errors_counter = _metrics.counter(f"{prefix}.errors")
        self._busy_counter = _metrics.counter(f"{prefix}.busy")
        self._latency = _metrics.histogram(
            f"{prefix}.latency_seconds", TIME_BUCKETS
        )

    def result(self) -> TenantResult:
        ms = sorted(lat * 1e3 for lat in self.latencies)
        return TenantResult(
            tenant=self.tenant,
            ops=len(ms),
            reads=self.reads,
            writes=self.writes,
            trims=self.trims,
            errors=self.errors,
            busy=self.busy,
            p50_ms=_percentile(ms, 0.50),
            p95_ms=_percentile(ms, 0.95),
            p99_ms=_percentile(ms, 0.99),
            mean_ms=float(np.mean(ms)) if ms else 0.0,
            max_ms=ms[-1] if ms else 0.0,
        )


class _Tally:
    """Mutable accumulator shared by all generator tasks of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds
        self.reads = 0
        self.writes = 0
        self.trims = 0
        self.errors = 0
        self.busy = 0
        self.tenants: dict[int, _TenantTally] = {}

    def bucket(self, tenant: int) -> _TenantTally:
        sub = self.tenants.get(tenant)
        if sub is None:
            sub = self.tenants[tenant] = _TenantTally(tenant)
        return sub

    def record(self, tenant: int, seconds: float) -> None:
        self.latencies.append(seconds)
        _LG_REQUESTS.inc()
        _LG_LATENCY.observe(seconds)
        sub = self.bucket(tenant)
        sub.latencies.append(seconds)
        sub._requests.inc()
        sub._latency.observe(seconds)

    def result(
        self,
        mode: str,
        clients: int,
        wall: float,
        offered: float | None,
        tenants: int = 1,
    ) -> LoadgenResult:
        ms = sorted(lat * 1e3 for lat in self.latencies)
        ops = len(ms)
        # Every tenant the run was configured for gets a row, including
        # tenants that completed nothing (all-zero, see TenantResult).
        for tenant in range(tenants):
            self.bucket(tenant)
        per_tenant = tuple(
            self.tenants[tenant].result()
            for tenant in sorted(self.tenants)
        )
        return LoadgenResult(
            mode=mode,
            clients=clients,
            ops=ops,
            reads=self.reads,
            writes=self.writes,
            trims=self.trims,
            errors=self.errors,
            busy=self.busy,
            wall_seconds=wall,
            achieved_iops=ops / wall if wall > 0 else 0.0,
            offered_iops=offered,
            p50_ms=_percentile(ms, 0.50),
            p95_ms=_percentile(ms, 0.95),
            p99_ms=_percentile(ms, 0.99),
            mean_ms=float(np.mean(ms)) if ms else 0.0,
            max_ms=ms[-1] if ms else 0.0,
            per_tenant=per_tenant,
        )


def _note_op(
    client: StorageClient, op: Op, start: float, outcome: str
) -> None:
    """Record one end-to-end ``loadgen.op`` trace event.

    Stamped with the trace id the client wired onto the request, so the
    same id links loadgen issue -> client send -> server admission ->
    flush -> fsync across processes.
    """
    registry = _metrics.get_registry()
    if not registry.enabled:
        return
    event = {
        "name": "loadgen.op",
        "span_id": registry.next_span_id(),
        "parent_id": None,
        "pid": os.getpid(),
        "ts": time.time(),
        "dur": time.perf_counter() - start,
        "attrs": {
            "op": op.kind.name,
            "lpn": op.lpn,
            "tenant": op.tenant,
            "outcome": outcome,
        },
    }
    if client.last_trace_id:
        event["trace_id"] = client.last_trace_id
    registry.record_event(event)


async def _issue(
    client: StorageClient, tally: _Tally, op: Op, bits: int
) -> bool:
    """One timed request; returns False when the device is end-of-life."""
    start = time.perf_counter()
    sub = tally.bucket(op.tenant)
    try:
        if op.kind is OpKind.READ:
            await client.read(op.lpn)
            tally.reads += 1
            sub.reads += 1
        elif op.kind is OpKind.TRIM:
            await client.trim(op.lpn)
            tally.trims += 1
            sub.trims += 1
        else:
            await client.write(op.lpn, payload_for(op, bits))
            tally.writes += 1
            sub.writes += 1
    except ServerBusyError:
        tally.busy += 1
        sub.busy += 1
        _LG_BUSY.inc()
        sub._busy_counter.inc()
        _note_op(client, op, start, "busy")
    except ReadOnlyModeError:
        tally.errors += 1
        sub.errors += 1
        _LG_ERRORS.inc()
        sub._errors_counter.inc()
        tally.record(op.tenant, time.perf_counter() - start)
        _note_op(client, op, start, "read_only")
        return False  # device is dead for writes; stop hammering it
    except (ReproError, ConnectionLostError):
        tally.errors += 1
        sub.errors += 1
        _LG_ERRORS.inc()
        sub._errors_counter.inc()
        _note_op(client, op, start, "error")
    else:
        _note_op(client, op, start, "ok")
    tally.record(op.tenant, time.perf_counter() - start)
    return True


async def _fetch_geometry(
    host: str, port: int, timeout: float | None = DEFAULT_CONNECT_TIMEOUT
) -> tuple[int, int]:
    """(logical_pages, dataword_bits) from a throwaway STAT request."""
    async with await StorageClient.connect(
        host, port, timeout=timeout
    ) as client:
        info = await client.stat()
    return info["logical_pages"], info["dataword_bits"]


def _stream_kwargs(read_fraction: float, workload_kwargs: dict) -> dict:
    """Fold the legacy ``read_fraction`` knob into workload parameters.

    Kind mixing lives in the workload layer now (the op stream decides
    READ vs WRITE), so the flag becomes the synthetic distributions'
    ``read_fraction`` parameter.  Trace workloads take their kinds from
    the trace itself and reject the parameter via the registry.
    """
    if not 0 <= read_fraction <= 1:
        raise ConfigurationError("read_fraction must lie in [0, 1]")
    kwargs = dict(workload_kwargs)
    if read_fraction:
        kwargs["read_fraction"] = read_fraction
    return kwargs


async def run_closed_loop(
    host: str,
    port: int,
    *,
    clients: int = 4,
    ops_per_client: int = 100,
    workload: str = "uniform",
    read_fraction: float = 0.0,
    seed: int = 0,
    tenants: int = 1,
    connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
    **workload_kwargs,
) -> LoadgenResult:
    """``clients`` connections, one outstanding request each.

    With ``tenants=N`` client ``i`` serves tenant ``i % N``: its
    connection HELLOs the tenant id and its stream is the tenant's
    :func:`~repro.workload.mixed.derive_child_seed` child, so with
    ``clients == tenants`` each tenant replays exactly the stream a
    simulator-side ``MixedWorkload`` over the same spec would deal it.
    """
    if clients < 1 or ops_per_client < 1:
        raise ConfigurationError("need at least one client and one op")
    if not 1 <= tenants <= clients:
        raise ConfigurationError(
            "tenants must lie in [1, clients] (each tenant needs a client)"
        )
    kwargs = _stream_kwargs(read_fraction, workload_kwargs)
    logical_pages, bits = await _fetch_geometry(
        host, port, timeout=connect_timeout
    )
    tally = _Tally()

    async def one_client(index: int) -> None:
        if tenants > 1:
            tenant = index % tenants
            stream = make_workload(
                workload, logical_pages,
                seed=derive_child_seed(seed, index), tenant=tenant, **kwargs,
            )
            client = await StorageClient.connect(
                host, port, tenant=tenant, timeout=connect_timeout
            )
        else:
            stream = make_workload(
                workload, logical_pages, seed=seed + index, **kwargs
            )
            client = await StorageClient.connect(
                host, port, timeout=connect_timeout
            )
        async with client:
            for _ in range(ops_per_client):
                if not await _issue(client, tally, next(stream), bits):
                    break

    with _span("loadgen.run", mode="closed", clients=clients,
               tenants=tenants):
        start = time.perf_counter()
        await asyncio.gather(*(one_client(i) for i in range(clients)))
        wall = time.perf_counter() - start
    return tally.result("closed", clients, wall, offered=None,
                        tenants=tenants)


async def run_open_loop(
    host: str,
    port: int,
    *,
    rate: float,
    total_ops: int = 100,
    workload: str = "uniform",
    read_fraction: float = 0.0,
    seed: int = 0,
    tenants: int = 1,
    connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
    **workload_kwargs,
) -> LoadgenResult:
    """Issue ``total_ops`` requests at ``rate`` per second, pipelined.

    The schedule never waits for completions: a slow server accumulates
    in-flight requests (and queueing latency) instead of slowing the
    generator down.

    With ``tenants=N`` the schedule is one
    :class:`~repro.workload.mixed.MixedWorkload` interleave of ``N``
    child streams of the named workload — the same composite stream the
    simulator would run — and each op goes out on its tenant's own
    HELLO-tagged connection, so server-side per-tenant QoS (credit
    windows, BUSY shedding) applies to the offender alone.
    """
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if total_ops < 1:
        raise ConfigurationError("need at least one op")
    if tenants < 1:
        raise ConfigurationError("need at least one tenant")
    kwargs = _stream_kwargs(read_fraction, workload_kwargs)
    logical_pages, bits = await _fetch_geometry(
        host, port, timeout=connect_timeout
    )
    tally = _Tally()
    if tenants > 1:
        stream: Workload = make_workload(
            "mixed", logical_pages, seed=seed,
            base=workload, tenants=tenants, **kwargs,
        )
    else:
        stream = make_workload(workload, logical_pages, seed=seed, **kwargs)
    clients: dict[int, StorageClient] = {}
    with _span("loadgen.run", mode="open", rate=rate, total_ops=total_ops,
               tenants=tenants):
        try:
            for tenant in range(tenants):
                clients[tenant] = await StorageClient.connect(
                    host, port, tenant=tenant, timeout=connect_timeout
                )
            start = time.perf_counter()
            tasks = []
            for k in range(total_ops):
                delay = start + k / rate - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                op = next(stream)
                tasks.append(asyncio.ensure_future(
                    _issue(clients[op.tenant], tally, op, bits)
                ))
            await asyncio.gather(*tasks)
            wall = time.perf_counter() - start
        finally:
            for client in clients.values():
                await client.close()
    return tally.result("open", tenants, wall, offered=rate, tenants=tenants)

