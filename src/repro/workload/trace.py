"""Trace-driven workloads: MSR-Cambridge-style CSV block-trace replay.

Real storage evaluations replay block traces in the standard public
block-trace shape::

    timestamp,op,offset,size
    0.000,Write,0,8192
    0.013,Read,4096,4096

one record per line; ``op`` is ``Read``/``Write``/``Trim``
(case-insensitive, first letter suffices) and ``offset``/``size`` are in
bytes.  Full seven-column MSR rows
(``Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime``) are
accepted as-is — the extra columns are ignored.  A header line is
skipped automatically, as are blank lines and ``#`` comments.  Replay
maps byte extents onto logical pages (one op per page covered) and wraps
offsets beyond the simulated device's address space modulo its size, so
traces captured from real multi-terabyte disks still drive a small
simulated device with their original locality structure.

Replay cycles when the trace runs out — workloads are infinite
iterators; consumers bound their own run length.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.workload.base import Workload
from repro.workload.ops import Op, OpKind

__all__ = ["TraceRecord", "TraceReplayWorkload", "load_csv_trace"]

_KINDS = {"r": OpKind.READ, "w": OpKind.WRITE, "t": OpKind.TRIM}


@dataclass(frozen=True)
class TraceRecord:
    """One parsed trace row: a byte extent touched at a point in time."""

    timestamp: float
    kind: OpKind
    offset: int
    size: int


def _data_lines(source: str | Path | io.TextIOBase) -> list[tuple[int, str]]:
    """(line number, stripped content) pairs, comments/blanks removed."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((number, line))
    return lines


def load_csv_trace(source: str | Path | io.TextIOBase) -> list[TraceRecord]:
    """Parse a CSV block trace into :class:`TraceRecord` rows.

    Accepts the minimal ``timestamp,op,offset,size`` shape and full
    seven-column MSR rows; one optional header line is skipped.
    """
    records: list[TraceRecord] = []
    for index, (number, line) in enumerate(_data_lines(source)):
        fields = [field.strip() for field in line.split(",")]
        if len(fields) >= 7:  # MSR: Timestamp,Host,Disk,Type,Offset,Size,...
            raw = (fields[0], fields[3], fields[4], fields[5])
        elif len(fields) == 4:
            raw = tuple(fields)
        else:
            raise ConfigurationError(
                f"trace line {number}: expected 4 or 7+ comma-separated "
                f"fields, got {len(fields)}"
            )
        try:
            timestamp = float(raw[0])
        except ValueError:
            if index == 0:
                continue  # a header line; skip it
            raise ConfigurationError(
                f"trace line {number}: {raw[0]!r} is not a timestamp"
            ) from None
        kind = _KINDS.get(raw[1][:1].lower())
        if kind is None:
            raise ConfigurationError(
                f"trace line {number}: unknown op {raw[1]!r} "
                f"(expected Read/Write/Trim)"
            )
        try:
            offset, size = int(raw[2]), int(raw[3])
        except ValueError:
            raise ConfigurationError(
                f"trace line {number}: offset/size must be integers"
            ) from None
        if offset < 0 or size < 1:
            raise ConfigurationError(
                f"trace line {number}: need offset >= 0 and size >= 1"
            )
        records.append(TraceRecord(timestamp, kind, offset, size))
    if not records:
        raise ConfigurationError("trace contains no records")
    return records


class TraceReplayWorkload(Workload):
    """Replays a CSV block trace as an op stream, cycling at the end.

    Each record expands to one op per logical page its byte extent covers
    (``page_bytes`` sets the mapping); pages beyond the device wrap modulo
    ``logical_pages``.  The current record is held as a cursor (kind, next
    page, pages left), so a multi-gigabyte extent costs O(1) memory and
    O(1) per op.  WRITE payloads get deterministic per-op seeds like every
    other workload, so all harnesses replay identical bytes.
    """

    def __init__(
        self,
        logical_pages: int,
        records: list[TraceRecord],
        page_bytes: int = 4096,
        seed: int = 0,
        tenant: int = 0,
    ) -> None:
        super().__init__(logical_pages, seed=seed, tenant=tenant)
        if not records:
            raise ConfigurationError("empty trace")
        if page_bytes < 1:
            raise ConfigurationError("page_bytes must be positive")
        self.records = list(records)
        self.page_bytes = page_bytes
        self._record_cursor = 0
        self._kind = OpKind.WRITE
        self._next_page = 0
        self._pages_left = 0

    def next_op(self) -> Op:
        if not self._pages_left:
            record = self.records[self._record_cursor]
            self._record_cursor = (
                self._record_cursor + 1
            ) % len(self.records)
            self._kind = record.kind
            self._next_page = record.offset // self.page_bytes
            self._pages_left = max(1, math.ceil(
                (record.offset % self.page_bytes + record.size)
                / self.page_bytes
            ))
        kind, lpn = self._kind, self._next_page % self.logical_pages
        self._next_page += 1
        self._pages_left -= 1
        if kind is OpKind.WRITE:
            return self.write_op(lpn)
        return Op(kind, lpn, tenant=self.tenant)
