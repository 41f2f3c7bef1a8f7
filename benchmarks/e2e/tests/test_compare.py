"""The regression gate's verdicts."""

import json

from benchmarks.e2e.compare import (
    REFERENCE_TOLERANCE, compare, reference_moved, verdict,
)
from benchmarks.e2e.stats import median, spread_share


def _row(values, better="lower", bound=0.25):
    return {"median": median(values), "spread": spread_share(values),
            "bound": bound, "better": better}


def _verdict(old, new, **kwargs):
    return verdict(old, new, _row(old, **kwargs), _row(new, **kwargs))


def test_verdicts():
    steady = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert _verdict(steady, [v * 1.1 for v in steady]) == "same"
    assert _verdict(steady, [v * 1.4 for v in steady]) == "worse"
    assert _verdict(steady, [v * 0.7 for v in steady]) == "better"
    # Direction: for a throughput, more is better.
    assert _verdict(steady, [v * 0.7 for v in steady], better="higher") == "worse"
    assert _verdict(steady, [v * 1.4 for v in steady], better="higher") == "better"
    # Spread wider than the bound and the runs overlap: cannot tell.
    noisy = [6.0, 14.0, 10.0, 8.0, 12.0]
    assert _verdict(noisy, [v * 1.1 for v in noisy]) == "unresolved"
    # Wide spread, but every NEW run is worse than every OLD run.
    assert _verdict(noisy, [v * 3 for v in noisy]) == "worse"
    assert _verdict([], steady) == "unresolved"


def test_a_moved_yardstick_is_reported():
    def workload(reference_ms):
        return {"informational": {"reference_ms": {"median": reference_ms}}}

    assert reference_moved(workload(0.95), workload(0.96)) is None
    moved = reference_moved(workload(0.95), workload(0.95 * 1.08))
    assert moved is not None and abs(moved - 0.08) < 1e-9
    assert abs(moved) > REFERENCE_TOLERANCE
    assert reference_moved(workload(0.95), workload(0.95 / 1.08)) < 0
    # A workload whose run failed has no reference to speak of.
    assert reference_moved({"informational": {}}, workload(0.95)) is None


def _report(nominal, reference_ms, measured=None):
    """A ``run --out`` report with one in-process and one served workload,
    whose nominal times are ``nominal`` times the baseline's and whose
    measured seconds are ``measured`` times it (default: the same)."""
    def workload():
        values = [10.0 * nominal, 10.2 * nominal, 9.9 * nominal]
        clock = [v / nominal * (measured or nominal) for v in values]
        row = {**_row(values), "unit": "ms", "values": values,
               "measured_values": clock, "measured_median": median(clock)}
        reference = {"values": [reference_ms], "median": reference_ms,
                     "spread": 0.0}
        return {"correct": True, "end_to_end": {"write_p50_ms": row},
                "informational": {"reference_ms": reference}}

    return {"provenance": {"commit": "c", "repeats": 3, "cpus": 2},
            "workloads": {"device-wom-gc": workload(),
                          "served-open-write": workload()}}


def test_compare_gates_on_worse_and_doubts_a_moved_reference(tmp_path, capsys):
    def rows(new):
        (tmp_path / "old.json").write_text(json.dumps(_report(1.0, 0.95)))
        (tmp_path / "new.json").write_text(json.dumps(new))
        code = compare(str(tmp_path / "old.json"), str(tmp_path / "new.json"))
        table = [line for line in capsys.readouterr().out.splitlines()
                 if "write_p50_ms" in line]
        assert table[0].startswith("device-wom-gc")
        assert table[1].startswith("served-open-write")
        return code, table[0].split("  ")[-1], table[1].split("  ")[-1]

    assert rows(_report(1.05, 0.96)) == (0, "same", "same")
    assert rows(_report(1.5, 0.96)) == (1, "worse", "worse")
    # The box got slower, reference and server alike: nominal time holds,
    # and the measured seconds, within the bound, do not contradict it.
    assert rows(_report(1.0, 1.05, measured=1.1)) == (
        0, "same", "same (reference moved +10.5%)"
    )
    # The reference got slower and the server much slower: nominal time
    # says "same", the clock says "worse".  Only the served row is doubted.
    assert rows(_report(1.0, 1.05, measured=1.5)) == (
        0, "same",
        "unresolved (reference moved +10.5%, measured seconds say worse)",
    )
    assert rows(_report(1.5, 1.05, measured=1.6)) == (
        1, "worse", "worse (reference moved +10.5%)"
    )
