"""Trace-driven workloads: block-trace replay in two formats.

Real storage evaluations replay block traces.  Two formats are supported:

**MSR-Cambridge-style CSV** (the standard public block-trace shape)::

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

**Newline-LPN** (the legacy minimal format): one logical page number per
line, write-only.  Still read and written so old traces keep replaying.

Both replay classes cycle when the trace runs out — workloads are
infinite iterators; consumers bound their own run length.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.workload.base import Workload
from repro.workload.ops import Op, OpKind

__all__ = [
    "TraceRecord",
    "TraceReplayWorkload",
    "TraceWorkload",
    "load_csv_trace",
    "load_trace",
    "record_trace",
    "save_trace",
    "workload_from_trace",
]

_KINDS = {"r": OpKind.READ, "w": OpKind.WRITE, "t": OpKind.TRIM}


@dataclass(frozen=True)
class TraceRecord:
    """One parsed trace row: a byte extent touched at a point in time."""

    timestamp: float
    kind: OpKind
    offset: int
    size: int


def _read_text(source: str | Path | io.TextIOBase) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text()
    return source.read()


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped content) pairs, comments/blanks removed."""
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
    lines = _data_lines(_read_text(source))
    records: list[TraceRecord] = []
    for index, (number, line) in enumerate(lines):
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
    ``logical_pages``.  WRITE payloads get deterministic per-op seeds like
    every other workload, so all harnesses replay identical bytes.
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
        self._pending: list[tuple[OpKind, int]] = []

    @classmethod
    def from_file(
        cls,
        logical_pages: int,
        path: str | Path,
        page_bytes: int = 4096,
        seed: int = 0,
        tenant: int = 0,
    ) -> "TraceReplayWorkload":
        return cls(
            logical_pages, load_csv_trace(path), page_bytes=page_bytes,
            seed=seed, tenant=tenant,
        )

    def _expand(self, record: TraceRecord) -> list[tuple[OpKind, int]]:
        first = record.offset // self.page_bytes
        pages = max(1, math.ceil(
            (record.offset % self.page_bytes + record.size) / self.page_bytes
        ))
        return [
            (record.kind, (first + k) % self.logical_pages)
            for k in range(pages)
        ]

    def next_op(self) -> Op:
        while not self._pending:
            record = self.records[self._record_cursor]
            self._record_cursor = (
                self._record_cursor + 1
            ) % len(self.records)
            self._pending = self._expand(record)
        kind, lpn = self._pending.pop(0)
        if kind is OpKind.WRITE:
            return self.write_op(lpn)
        return Op(kind, lpn, tenant=self.tenant)


# -- legacy newline-LPN format ------------------------------------------------


def load_trace(source: str | Path | io.TextIOBase) -> list[int]:
    """Parse a legacy trace: one LPN per line, ``#`` comments allowed."""
    lpns = []
    for number, line in _data_lines(_read_text(source)):
        try:
            lpn = int(line)
        except ValueError:
            raise ConfigurationError(
                f"trace line {number}: {line!r} is not a page number"
            ) from None
        if lpn < 0:
            raise ConfigurationError(
                f"trace line {number}: negative page number {lpn}"
            )
        lpns.append(lpn)
    if not lpns:
        raise ConfigurationError("trace contains no writes")
    return lpns


def save_trace(lpns: list[int], path: str | Path) -> None:
    """Write a trace in the format :func:`load_trace` reads."""
    Path(path).write_text("\n".join(str(lpn) for lpn in lpns) + "\n")


def record_trace(workload: Workload, length: int) -> list[int]:
    """Capture ``length`` LPNs from any workload generator."""
    if length < 1:
        raise ConfigurationError("trace length must be positive")
    lpns = []
    for op in workload:
        lpns.append(op.lpn if isinstance(op, Op) else int(op))
        if len(lpns) == length:
            return lpns


class TraceWorkload(Workload):
    """Replays a fixed LPN sequence as writes, cycling when it runs out.

    ``logical_pages`` bounds the address space; traces referencing pages
    beyond it are rejected up front rather than failing mid-simulation.
    """

    def __init__(
        self,
        logical_pages: int,
        lpns: list[int],
        seed: int = 0,
        tenant: int = 0,
    ) -> None:
        super().__init__(logical_pages, seed=seed, tenant=tenant)
        if not lpns:
            raise ConfigurationError("empty trace")
        out_of_range = [lpn for lpn in lpns if lpn >= logical_pages]
        if out_of_range:
            raise ConfigurationError(
                f"trace references pages beyond the device "
                f"(first: {out_of_range[0]}, device has {logical_pages})"
            )
        self.lpns = list(lpns)
        self._cursor = 0

    @classmethod
    def from_file(
        cls, logical_pages: int, path: str | Path, seed: int = 0, tenant: int = 0
    ) -> "TraceWorkload":
        return cls(logical_pages, load_trace(path), seed=seed, tenant=tenant)

    def next_lpn(self) -> int:
        lpn = self.lpns[self._cursor]
        self._cursor = (self._cursor + 1) % len(self.lpns)
        return lpn

    def next_op(self) -> Op:
        return self.write_op(self.next_lpn())


def workload_from_trace(
    path: str | Path,
    logical_pages: int,
    seed: int = 0,
    tenant: int = 0,
    page_bytes: int = 4096,
) -> Workload:
    """Build a replay workload from a trace file, sniffing its format.

    Lines with commas mean the CSV block-trace format; otherwise the file
    is read as legacy newline-LPN.
    """
    text = _read_text(path)
    lines = _data_lines(text)
    if not lines:
        raise ConfigurationError("trace contains no records")
    if "," in lines[0][1]:
        return TraceReplayWorkload(
            logical_pages, load_csv_trace(io.StringIO(text)),
            page_bytes=page_bytes, seed=seed, tenant=tenant,
        )
    return TraceWorkload(
        logical_pages, load_trace(io.StringIO(text)), seed=seed, tenant=tenant,
    )
