"""Tests for trace-driven device workloads: CSV parsing and replay."""

from __future__ import annotations

import io

import pytest

from repro.errors import ConfigurationError
from repro.workload import (
    TraceReplayWorkload,
    UniformWorkload,
    load_csv_trace,
    make_workload,
)


def writes(*lpns: int, page_bytes: int = 4096) -> str:
    """A CSV trace of one-page writes to ``lpns``, in order."""
    return "".join(f"0.0,Write,{lpn * page_bytes},{page_bytes}\n"
                   for lpn in lpns)


class TestLoadTrace:
    def test_parses_lines_and_comments(self) -> None:
        source = io.StringIO(
            "# header\n0,W,12288,4096\n0,W,4096,4096  # inline comment\n"
            "\n0,W,8192,4096\n"
        )
        assert [r.offset for r in load_csv_trace(source)] == [12288, 4096, 8192]

    def test_file_roundtrip(self, tmp_path) -> None:
        path = tmp_path / "writes.csv"
        path.write_text(writes(0, 5, 2, 5))
        assert load_csv_trace(path) == load_csv_trace(
            io.StringIO(writes(0, 5, 2, 5))
        )

    def test_rejects_garbage(self) -> None:
        with pytest.raises(ConfigurationError, match="line 2"):
            load_csv_trace(io.StringIO("0,W,0,4096\nnope,W,0,4096\n"))

    def test_rejects_negative(self) -> None:
        with pytest.raises(ConfigurationError):
            load_csv_trace(io.StringIO("0,W,-1,4096\n"))

    def test_rejects_empty(self) -> None:
        with pytest.raises(ConfigurationError, match="no records"):
            load_csv_trace(io.StringIO("# only comments\n"))

    def test_rejects_truly_empty_source(self) -> None:
        with pytest.raises(ConfigurationError, match="no records"):
            load_csv_trace(io.StringIO(""))

    def test_rejects_whitespace_only(self) -> None:
        with pytest.raises(ConfigurationError, match="no records"):
            load_csv_trace(io.StringIO("   \n\t\n  \n"))

    def test_malformed_line_reports_its_number(self) -> None:
        with pytest.raises(ConfigurationError, match="line 3"):
            load_csv_trace(io.StringIO("0,W,0,1\n0,W,1,1\n0,W,2.5,1\n0,W,4,1\n"))

    def test_negative_reports_line_number(self) -> None:
        with pytest.raises(ConfigurationError, match="line 2"):
            load_csv_trace(io.StringIO("0,W,7,4096\n0,W,-3,4096\n"))

    def test_empty_file_roundtrip_fails_cleanly(self, tmp_path) -> None:
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="no records"):
            load_csv_trace(path)

    def test_recorded_trace_roundtrip(self, tmp_path) -> None:
        source = UniformWorkload(16, seed=7)
        recorded = [next(source).lpn for _ in range(25)]
        path = tmp_path / "recorded.csv"
        path.write_text(writes(*recorded))
        replay = TraceReplayWorkload(16, load_csv_trace(path))
        assert [next(replay).lpn for _ in range(25)] == recorded


class TestTraceWorkload:
    def test_replays_in_order_and_cycles(self) -> None:
        records = load_csv_trace(io.StringIO(writes(3, 1, 4)))
        workload = TraceReplayWorkload(8, records)
        assert [next(workload).lpn for _ in range(7)] == [3, 1, 4, 3, 1, 4, 3]

    def test_rejects_empty_trace(self) -> None:
        with pytest.raises(ConfigurationError):
            TraceReplayWorkload(4, [])

    def test_from_file(self, tmp_path) -> None:
        path = tmp_path / "t.csv"
        path.write_text(writes(0, 1))
        workload = make_workload("trace", 4, path=str(path))
        assert next(workload).lpn == 0

    def test_drives_a_device(self, tmp_path) -> None:
        from repro.flash import FlashGeometry
        from repro.ssd import SSD, run_until_death

        ssd = SSD(
            geometry=FlashGeometry(blocks=4, pages_per_block=4, page_bits=96,
                                   erase_limit=6),
            scheme="wom",
            utilization=0.5,
        )
        path = tmp_path / "t.csv"
        path.write_text(writes(*(lpn % ssd.logical_pages for lpn in range(17))))
        workload = make_workload("trace", ssd.logical_pages, path=str(path))
        result = run_until_death(ssd, workload, max_writes=50_000)
        assert result.host_writes > 0
