"""CSV block-trace parsing and replay expansion."""

from __future__ import annotations

import io
import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.workload import (
    OpKind,
    TraceRecord,
    TraceReplayWorkload,
    load_csv_trace,
    make_workload,
)

CSV = """\
timestamp,op,offset,size
0.000,Write,0,8192
0.013,Read,4096,4096
0.020,Trim,8192,4096
"""

MSR = """\
128166372003061629,src1,0,Write,0,4096,1331
128166372003061630,src1,0,Read,8192,8192,902
"""


class TestLoadCsvTrace:
    def test_minimal_four_column(self) -> None:
        records = load_csv_trace(io.StringIO(CSV))
        assert records == [
            TraceRecord(0.000, OpKind.WRITE, 0, 8192),
            TraceRecord(0.013, OpKind.READ, 4096, 4096),
            TraceRecord(0.020, OpKind.TRIM, 8192, 4096),
        ]

    def test_seven_column_msr(self) -> None:
        records = load_csv_trace(io.StringIO(MSR))
        assert [r.kind for r in records] == [OpKind.WRITE, OpKind.READ]
        assert records[1].offset == 8192 and records[1].size == 8192

    def test_header_only_skipped_at_top(self) -> None:
        bad = "0.0,Write,0,4096\ntimestamp,op,offset,size\n"
        with pytest.raises(ConfigurationError, match="not a timestamp"):
            load_csv_trace(io.StringIO(bad))

    def test_comments_and_blank_lines_ignored(self) -> None:
        text = "# a trace\n\n0.0,W,0,4096  # inline comment\n"
        records = load_csv_trace(io.StringIO(text))
        assert len(records) == 1 and records[0].kind is OpKind.WRITE

    def test_unknown_op_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown op"):
            load_csv_trace(io.StringIO("0.0,Flush,0,4096\n"))

    def test_wrong_arity_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="4 or 7"):
            load_csv_trace(io.StringIO("0.0,Write,0\n"))

    def test_negative_offset_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="offset"):
            load_csv_trace(io.StringIO("0.0,Write,-1,4096\n"))

    def test_empty_trace_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="no records"):
            load_csv_trace(io.StringIO("# nothing\n"))


class TestTraceReplayWorkload:
    def test_extent_expands_to_one_op_per_page(self) -> None:
        records = [TraceRecord(0.0, OpKind.WRITE, 0, 8192)]
        wl = TraceReplayWorkload(64, records, page_bytes=4096)
        assert [next(wl).lpn for _ in range(2)] == [0, 1]

    def test_unaligned_extent_covers_straddled_pages(self) -> None:
        # Bytes [6144, 10240) straddle pages 1 and 2.
        records = [TraceRecord(0.0, OpKind.READ, 6144, 4096)]
        wl = TraceReplayWorkload(64, records, page_bytes=4096)
        ops = [next(wl) for _ in range(2)]
        assert [op.lpn for op in ops] == [1, 2]
        assert all(op.kind is OpKind.READ for op in ops)

    def test_offsets_wrap_modulo_device(self) -> None:
        records = [TraceRecord(0.0, OpKind.WRITE, 4096 * 70, 4096)]
        wl = TraceReplayWorkload(64, records, page_bytes=4096)
        assert next(wl).lpn == 70 % 64

    def test_cycles_forever(self) -> None:
        records = load_csv_trace(io.StringIO(CSV))
        wl = TraceReplayWorkload(64, records, page_bytes=4096)
        kinds = [next(wl).kind for _ in range(8)]
        # 2 writes + 1 read + 1 trim per cycle, repeated.
        assert kinds == [
            OpKind.WRITE, OpKind.WRITE, OpKind.READ, OpKind.TRIM,
        ] * 2

    def test_replay_is_deterministic_including_payloads(self) -> None:
        records = load_csv_trace(io.StringIO(CSV))
        a = TraceReplayWorkload(64, records, seed=3)
        b = TraceReplayWorkload(64, records, seed=3)
        assert [next(a) for _ in range(12)] == [next(b) for _ in range(12)]

    def test_wrapping_extent_yields_the_pages_of_a_full_expansion(
        self,
    ) -> None:
        # Bytes [4096*62 + 1000, 4096*65 + 1000) straddle pages 62..65,
        # which wrap to 62, 63, 0, 1 on a 64-page device.
        records = [
            TraceRecord(0.0, OpKind.WRITE, 4096 * 62 + 1000, 4096 * 3),
            TraceRecord(0.1, OpKind.READ, 4096 * 130, 4096 * 2),
        ]
        wl = TraceReplayWorkload(64, records, page_bytes=4096)
        expanded = [
            (OpKind.WRITE, 62), (OpKind.WRITE, 63), (OpKind.WRITE, 0),
            (OpKind.WRITE, 1), (OpKind.READ, 2), (OpKind.READ, 3),
        ]
        ops = [next(wl) for _ in range(2 * len(expanded))]
        assert [(op.kind, op.lpn) for op in ops] == expanded * 2

    def test_huge_extent_replays_in_constant_memory(self) -> None:
        # One 1 GiB write is 262 144 pages; replay holds a cursor, not a
        # list of them.
        records = [TraceRecord(0.0, OpKind.WRITE, 0, 1 << 30)]
        tracemalloc.start()
        try:
            wl = TraceReplayWorkload(4096, records, page_bytes=4096)
            lpns = [next(wl).lpn for _ in range(1000)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lpns == list(range(1000))
        assert peak < 256 * 1024


class TestFormatSniffing:
    """The registry's ``trace`` factory reads CSV, the one trace format."""

    def test_csv_detected(self, tmp_path) -> None:
        path = tmp_path / "trace.csv"
        path.write_text(CSV)
        wl = make_workload("trace", 64, path=str(path))
        assert isinstance(wl, TraceReplayWorkload)

    @pytest.mark.parametrize("name,text", [("trace.csv", CSV)], ids=["csv"])
    def test_both_formats_keep_the_tenant(self, tmp_path, name, text) -> None:
        path = tmp_path / name
        path.write_text(text)
        registered = make_workload("trace", 64, seed=1, tenant=3, path=str(path))
        assert isinstance(registered, TraceReplayWorkload)
        assert {next(registered).tenant for _ in range(4)} == {3}
