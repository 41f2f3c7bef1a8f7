"""Tracer arithmetic: self time with nested spans, on two threads."""

import threading
import time

import pytest

from benchmarks.e2e.harness import Window, matching
from benchmarks.e2e.tracer import Boundary, Tracer


def _nested(tracer: Tracer):
    """outer(20 ms of its own) -> inner(30 ms), as traced callables."""
    def inner():
        time.sleep(0.03)

    traced_inner = tracer.wrap(inner, Boundary("", "inner"))

    def outer():
        time.sleep(0.01)
        traced_inner()
        time.sleep(0.01)

    return tracer.wrap(outer, Boundary("", "outer"))


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    start = time.perf_counter()
    _nested(tracer)()
    totals = tracer.totals(start, time.perf_counter())
    assert totals["outer"].count == totals["inner"].count == 1
    assert totals["inner"].self_s == pytest.approx(totals["inner"].total_s)
    assert totals["inner"].total_s >= 0.03
    # The identity the per-layer table rests on, exact up to rounding.
    assert totals["outer"].self_s == pytest.approx(
        totals["outer"].total_s - totals["inner"].total_s, abs=1e-9
    )
    assert 0.02 <= totals["outer"].self_s < 0.03


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    traced = _nested(tracer)
    start = time.perf_counter()
    workers = [threading.Thread(target=traced, name=f"worker-{i}")
               for i in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=5)
        assert not worker.is_alive()
    end = time.perf_counter()
    for index in range(2):
        mine = tracer.totals(start, end, thread_prefix=f"worker-{index}")
        # Each thread saw exactly its own outer -> inner pair, although the
        # two ran interleaved.
        assert mine["outer"].count == mine["inner"].count == 1
        assert mine["outer"].self_s + mine["inner"].self_s == pytest.approx(
            tracer.top_level_s(start, end, f"worker-{index}"), abs=1e-9
        )
    assert tracer.totals(start, end)["outer"].count == 2


def test_failed_calls_and_values_are_recorded():
    tracer = Tracer()

    def flaky(fail: bool) -> int:
        if fail:
            raise ValueError("no")
        return 7

    traced = tracer.wrap(
        flaky, Boundary("", "flaky", value=lambda _args, result: result)
    )
    start = time.perf_counter()
    assert traced(False) == 7
    with pytest.raises(ValueError):
        traced(True)
    end = time.perf_counter()
    totals = tracer.totals(start, end)["flaky"]
    assert (totals.count, totals.failed, totals.values) == (2, 1, [7, None])


def test_labelled_spans_match_their_plain_name():
    tracer = Tracer()
    traced = tracer.wrap(
        lambda scheme: None,
        Boundary("", "write", label=lambda args: args[0]),
    )
    with Window() as window:
        traced("WOM")
        traced("MFC")
    assert [s.name for s in tracer.spans("write", window.start, window.end)] == [
        "write:WOM", "write:MFC"
    ]
    assert matching(tracer.totals(window.start, window.end), "write")[0].count == 1
    assert len(matching(tracer.totals(window.start, window.end), "write")) == 2


def test_install_replaces_and_uninstall_restores():
    from repro.flash.chip import FlashChip

    original = FlashChip.__dict__["read_page"]
    tracer = Tracer()
    tracer.install()
    try:
        assert FlashChip.__dict__["read_page"] is not original
        assert FlashChip.__dict__["read_page"].__wrapped__ is original
    finally:
        tracer.uninstall()
    assert FlashChip.__dict__["read_page"] is original


def test_inactive_tracer_records_no_benchmark_spans():
    tracer = Tracer()
    with tracer.span("quiet"):
        pass
    tracer.active = True
    with tracer.span("loud"):
        pass
    names = [s.name for _thread, spans in tracer.threads() for s in spans]
    assert names == ["loud"]
