"""Nominal time and the slice arithmetic of the end-to-end metrics."""

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.harness import REFERENCE_NOMINAL_S, Pace, end_to_end, nominal


NO_SETUP = (0.0, 0.0)


def _pace(samples, marks):
    """A pace with hand-made reference samples ``(time, seconds)``."""
    pace = Pace()
    pace._times = [t for t, _ in samples]
    pace._seconds = [s for _, s in samples]
    pace.marks = list(marks)
    return pace


def test_factor_converts_with_the_reference_speed_around_a_time():
    slow, usual = 2 * REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S
    pace = _pace(
        [(0, usual), (1, usual), (2, usual), (3, slow), (4, slow), (5, slow)],
        [],
    )
    assert pace.factor(0.5) == pytest.approx(1.0)
    assert pace.factor(4.5) == pytest.approx(0.5)   # the box ran at half speed
    assert pace.factor(3.2, 4.8) == pytest.approx(0.5)
    # One sample hit by a stall does not move the median of its neighbours.
    pace._seconds[1] = 50 * usual
    assert pace.factor(1.0) == pytest.approx(1.0)


def test_reference_kernel_is_deterministic_and_sampled_by_tick():
    assert harness.reference_kernel() == harness.reference_kernel()
    pace = Pace(slice_s=None)
    now = pace.mark()
    pace.tick(now)                       # nothing due yet
    assert len(pace._times) == 1 and len(pace.marks) == 1
    pace.tick(now + 10)                  # a sample is due, a mark never is
    assert len(pace._times) == 2 and len(pace.marks) == 1
    sliced = Pace(slice_s=0.5)
    now = sliced.mark()
    sliced.tick(now + 10)
    assert len(sliced.marks) == 2


def test_metrics_are_nominal_and_report_the_median_slice():
    usual, slow = REFERENCE_NOMINAL_S, 2 * REFERENCE_NOMINAL_S
    # Four 1 s slices, 0.5 CPU-seconds each; during the third the box ran at
    # half speed: half the writes got done and each took twice as long.
    samples = [(t / 4, slow if 2 <= t / 4 < 3 else usual) for t in range(17)]
    marks = [(0, 0.0), (1, 0.5), (2, 1.0), (3, 1.5), (4, 2.0)]
    writes = []
    for index, (count, latency) in enumerate(
        [(10, 0.010), (10, 0.010), (5, 0.020), (10, 0.010)]
    ):
        writes += [(index + (k + 0.5) / count, latency) for k in range(count)]
    op_done = [done for done, _ in writes]
    metrics, measured = end_to_end(
        (1.5, 1.25), _pace(samples, marks), op_done, writes
    )
    assert (measured["setup_s"], metrics["setup_s"]) == (1.5, 1.25)
    # In nominal time the disturbed slice looks like the others.
    assert metrics["write_ops_per_s"] == pytest.approx(10)
    assert metrics["write_p50_ms"] == pytest.approx(10)
    assert metrics["write_p90_ms"] == pytest.approx(10)
    assert metrics["cpu_ms_per_op"] == pytest.approx(50)
    # An open loop's throughput is its schedule's: measured seconds.
    raw, _ = end_to_end(
        NO_SETUP, _pace(samples, marks), op_done, writes, open_loop=True
    )
    assert raw["write_ops_per_s"] == pytest.approx(10)
    half = _pace([(t, slow) for t in range(5)], marks)
    scaled, clock = end_to_end(NO_SETUP, half, op_done, writes)
    assert scaled["write_ops_per_s"] > 10
    assert end_to_end(NO_SETUP, half, op_done, writes, open_loop=True)[0][
        "write_ops_per_s"
    ] == pytest.approx(10)
    # Beside the nominal value stands what the clock read: here the box ran
    # at half speed throughout, so every time is twice its nominal value.
    assert clock["write_ops_per_s"] == pytest.approx(10)
    assert scaled["write_ops_per_s"] == pytest.approx(20)
    assert clock["write_p50_ms"] == pytest.approx(2 * scaled["write_p50_ms"])
    assert clock["cpu_ms_per_op"] == pytest.approx(2 * scaled["cpu_ms_per_op"])


def test_short_and_empty_slices_are_left_out():
    samples = [(t, REFERENCE_NOMINAL_S) for t in range(4)]
    marks = [(0, 0.0), (1, 0.1), (2, 0.2), (2.2, 0.3)]
    writes = [(0.5, 0.001), (0.6, 0.003), (2.1, 0.5)]  # none in slice two
    metrics, _ = end_to_end(
        NO_SETUP, _pace(samples, marks), [done for done, _ in writes], writes
    )
    assert metrics["write_ops_per_s"] == pytest.approx(2)
    assert metrics["write_p50_ms"] == pytest.approx(2)
    assert metrics["cpu_ms_per_op"] == pytest.approx(50)


def test_a_stall_spoils_its_own_slice_only():
    samples = [(t, REFERENCE_NOMINAL_S) for t in range(6)]
    marks = [(t, 0.1 * t) for t in range(6)]
    writes = []
    for index in range(5):
        slow = index == 2   # one slice in five sat behind a 300 ms stall
        writes += [(index + (k + 0.5) / 10, 0.3 if slow else 0.005)
                   for k in range(10)]
    metrics, _ = end_to_end(
        NO_SETUP, _pace(samples, marks), [done for done, _ in writes], writes
    )
    assert metrics["write_p90_ms"] == pytest.approx(5)


def test_throughput_may_count_more_writes_than_have_a_latency():
    pace = _pace([(0, REFERENCE_NOMINAL_S)], [(0, 0.0), (1, 1.0)])
    done = [0.1, 0.2, 0.3, 0.4]
    metrics, _ = end_to_end(
        NO_SETUP, pace, done, [(0.2, 0.004)], write_done=done
    )
    assert metrics["write_ops_per_s"] == pytest.approx(4)
    assert metrics["write_p50_ms"] == pytest.approx(4)
    assert metrics["cpu_ms_per_op"] == pytest.approx(250)


def test_nominal_scales_times_and_leaves_counts_alone():
    scaled = nominal(
        {"coding.viterbi_search_us_per_op": 100.0, "ftl.gc_runs_per_op": 0.5,
         "trace.unattributed_share": 0.05, "durability.recovery_s": 4.0}, 0.5,
    )
    assert scaled == {
        "coding.viterbi_search_us_per_op": 50.0, "ftl.gc_runs_per_op": 0.5,
        "trace.unattributed_share": 0.05, "durability.recovery_s": 2.0,
    }
