"""Open-loop latency runs from the due time, also through a stalled server."""

import asyncio
import time

import pytest

from repro.workload import make_workload

from benchmarks.e2e import loadgen

STALL_S = 0.2
RATE = 100.0


def test_open_loop_charges_a_stall_to_every_request_due_behind_it():
    calls = []

    async def send(_connection, _op):
        # The fake server blocks the whole event loop on its first request,
        # so the generator cannot even send the requests that come due.
        if not calls:
            time.sleep(STALL_S)
        calls.append(time.perf_counter())
        return True

    stream = make_workload("uniform", 16, seed=1)
    records = asyncio.run(loadgen.run_open(send, stream, 2, RATE, 0.5))
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
        # ... and the latency counts that wait, although the send itself
        # took next to nothing.
        assert record.latency_s >= waited - 0.01
        assert record.done - record.sent < 0.05
    after = [r for r in by_due if r.due - start > STALL_S + 0.1]
    assert after and max(r.latency_s for r in after) < 0.05


def test_closed_loop_keeps_in_flight_requests_per_connection():
    outstanding = [0, 0]
    peak = [0, 0]

    async def send(connection, _op):
        outstanding[connection] += 1
        peak[connection] = max(peak[connection], outstanding[connection])
        await asyncio.sleep(0.005)
        outstanding[connection] -= 1
        return True

    streams = [make_workload("uniform", 16, seed=s) for s in (1, 2)]
    records = asyncio.run(loadgen.run_closed(send, streams, 4, 0.1))
    assert peak == [4, 4]
    assert len(records) >= 8 * 10
    assert all(r.due == r.sent for r in records)
