"""Bugs in ``src/`` that the benchmark's workloads are sized around.

Each test states what should hold and is expected to fail, strictly: the
day the bug is fixed the test passes, the suite turns red, and whoever
fixed it undoes the workaround named in the reason.
"""

import numpy as np
import pytest

from repro.errors import PageProgramError
from repro.workload import make_workload, payload_for

from benchmarks.e2e import served
from benchmarks.e2e.inprocess import DEVICE_GEOMETRY, DEVICE_UTILIZATION


@pytest.mark.xfail(
    strict=True, raises=PageProgramError,
    reason="RewritingFTL.write_batch looks a batch's physical pages up once; "
    "when one lane relocates and that triggers GC, later lanes program "
    "stale pages.  Until it is fixed the served workloads run on 96 blocks "
    "(served.SERVED_GEOMETRY, SERVED_UTILIZATION), where GC never runs, and "
    "no workload covers MFC + batch flush + GC.",
)
def test_batched_mfc_writes_survive_gc_on_the_device_the_issue_sized(
    monkeypatch,
):
    """The 32-block device ISSUE.md sized for the served workloads, seed
    2017, fed the batches of 16 a saturated coalescer flushes: the 319th
    batch (5 089 writes, 7 GC runs in) is refused with "program would clear
    bit(s)".  Takes about 20 s."""
    monkeypatch.setattr(served, "SERVED_GEOMETRY", DEVICE_GEOMETRY)
    monkeypatch.setattr(served, "SERVED_UTILIZATION", DEVICE_UTILIZATION)
    ssd = served._make_ssd()
    bits = ssd.logical_page_bits
    last: dict[int, bytes] = {}

    fill = make_workload("sequential", ssd.logical_pages, seed=2017)
    for _ in range(ssd.logical_pages):
        op = next(fill)
        payload = payload_for(op, bits)
        ssd.write(op.lpn, payload)
        last[op.lpn] = payload.tobytes()

    stream = make_workload("zipf", ssd.logical_pages, seed=2017)
    for _ in range(500):   # 8 000 writes, the window ISSUE.md sized
        ops = [next(stream) for _ in range(16)]
        payloads = [payload_for(op, bits) for op in ops]
        ssd.write_batch([op.lpn for op in ops], np.stack(payloads))
        last.update(
            (op.lpn, payload.tobytes()) for op, payload in zip(ops, payloads)
        )

    assert ssd.ftl.stats.gc_runs > 0
    assert all(ssd.read(lpn).tobytes() == data for lpn, data in last.items())
