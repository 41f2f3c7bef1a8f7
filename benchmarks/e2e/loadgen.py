"""Closed- and open-loop load generators for the served workloads.

Both loops drive an abstract ``send(connection, op) -> bool`` coroutine, so
the same code runs against :class:`~repro.server.client.StorageClient`
connections and against the stalled fake server of the self-tests.

* **closed** — every connection keeps ``in_flight`` requests outstanding;
  a worker sends its next request only when its previous one completed,
  so a slow server receives less load.  Latency runs from the send.
* **open** — requests go out on a fixed schedule, round-robin over the
  connections, whether or not earlier ones completed.  Latency runs from
  the time a request was *due*, so a stall is charged to every request
  scheduled behind it (no coordinated omission); ``sent - due`` is how
  late the generator itself ran.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Callable, Iterator
from dataclasses import dataclass

from repro.workload import Op, OpKind

__all__ = ["OpRecord", "run_closed", "run_open"]

Send = Callable[[int, Op], Awaitable[bool]]


@dataclass(frozen=True)
class OpRecord:
    """One completed request; times are ``time.perf_counter`` readings."""

    write: bool
    due: float   # open loop: scheduled send time; closed loop: == sent
    sent: float
    done: float
    ok: bool

    @property
    def latency_s(self) -> float:
        return self.done - self.due


async def run_closed(
    send: Send,
    streams: list[Iterator[Op]],
    in_flight: int,
    seconds: float,
) -> list[OpRecord]:
    """Drive ``len(streams)`` connections until ``seconds`` have passed.

    Connection ``i`` draws from ``streams[i]``; its ``in_flight`` workers
    share that stream.
    """
    records: list[OpRecord] = []
    deadline = time.perf_counter() + seconds

    async def worker(connection: int) -> None:
        stream = streams[connection]
        while time.perf_counter() < deadline:
            op = next(stream)
            sent = time.perf_counter()
            ok = await send(connection, op)
            records.append(OpRecord(
                op.kind is OpKind.WRITE, sent, sent, time.perf_counter(), ok
            ))

    await asyncio.gather(*(
        worker(connection)
        for connection in range(len(streams))
        for _ in range(in_flight)
    ))
    return records


async def run_open(
    send: Send,
    stream: Iterator[Op],
    connections: int,
    rate: float,
    seconds: float,
) -> list[OpRecord]:
    """Send ``rate`` requests per second for ``seconds``, then drain."""
    records: list[OpRecord] = []
    total = max(1, round(rate * seconds))
    start = time.perf_counter()

    async def one(connection: int, op: Op, due: float, sent: float) -> None:
        ok = await send(connection, op)
        records.append(OpRecord(
            op.kind is OpKind.WRITE, due, sent, time.perf_counter(), ok
        ))

    tasks = []
    for index in range(total):
        due = start + index / rate
        # Always yield, even when behind schedule: the tasks created so far
        # only start, and replies are only read, while this loop is parked.
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        tasks.append(asyncio.ensure_future(
            one(index % connections, next(stream), due, time.perf_counter())
        ))
    await asyncio.gather(*tasks)
    return records
