"""Write-ahead journal: length-prefixed, CRC-protected, fsync-batched.

The journal is an append-only log of every mutation the served device
acknowledged, written **before** the mutation is applied and fsynced (per
policy) **before** the acknowledgement leaves the process.  Recovery replays
it on top of the newest checkpoint, so an acknowledged write survives any
crash the backing file survives.  Only host records and the end-of-life
latch are journaled; replay rebuilds garbage collection and wear leveling.

Record framing
--------------
Each record is ``u32 payload_len | u32 crc32(payload) | payload`` with all
integers little-endian.  The payload starts with ``u8 opcode | u64 seq``
followed by opcode-specific fields:

=================  ===  ====================================================
``SEGMENT_HEADER``   0  ``u32 format | u64 start_seq | 32-byte checkpoint
                        SHA-256`` (zeros when the segment follows no
                        checkpoint) — always the first record of a segment,
                        chaining it to the checkpoint it extends.
``WRITE``            1  ``u64 lpn | u32 nbits | ceil(nbits/8) packed bytes``
``TRIM``             2  ``u64 lpn``
``READ_ONLY``        6  no fields — the device latched end-of-life
=================  ===  ====================================================

Sequence numbers are assigned once, monotonically, across segment rotations;
replay skips records at or below the checkpoint's sequence, which makes a
duplicated tail record (a crash between write and ack retried by a client)
idempotent.

Opcodes 3-5 are not reused: format 1 gave them to GC reclaim, block
retirement and wear migration records, which replay never applied.  A
segment of any format but :data:`JOURNAL_FORMAT` is refused.

Torn tails
----------
A crash can leave the final record short or corrupt.  :func:`scan_journal`
stops at the first record that fails its length or CRC check and reports how
many trailing bytes it discarded; everything before that point is intact by
construction (records are appended strictly in order).  A torn *tail* is
expected crash damage, not an error — only records that were never fully
durable are lost, and those were never acknowledged.  A record whose CRC
checks but which does not decode is not crash damage, and neither is a
segment header of a format this build does not read: both raise
:class:`~repro.errors.DurabilityError`.
"""

from __future__ import annotations

import io
import os
import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import DurabilityError
from repro.obs import registry as _metrics
from repro.obs.registry import TIME_BUCKETS

__all__ = [
    "FSYNC_POLICIES",
    "JOURNAL_FORMAT",
    "JournalRecord",
    "JournalScan",
    "JournalWriter",
    "OpCode",
    "encode_record",
    "scan_journal",
]

#: Bumped whenever the record layout changes incompatibly.
JOURNAL_FORMAT = 2

#: Accepted values for :class:`JournalWriter`'s ``fsync_policy``.
FSYNC_POLICIES = ("always", "batch", "none")

#: Upper bound on a single payload; anything larger in a length prefix is
#: treated as tail corruption rather than an allocation request.
_MAX_PAYLOAD = 1 << 26

_HEADER = struct.Struct("<II")          # payload_len, crc32
_PREFIX = struct.Struct("<BQ")          # opcode, seq
_SEGMENT = struct.Struct("<IQ32s")      # format, start_seq, checkpoint sha
_WRITE = struct.Struct("<QI")           # lpn, nbits
_TRIM = struct.Struct("<Q")             # lpn

_FSYNC_SECONDS = _metrics.histogram("durability.fsync_seconds", TIME_BUCKETS)
_RECORDS = _metrics.counter("durability.journal_records")
_COMMITS = _metrics.counter("durability.commits")
_BYTES = _metrics.counter("durability.journal_bytes")


class OpCode:
    """Journal record opcodes (see the module docstring for layouts)."""

    SEGMENT_HEADER = 0
    WRITE = 1
    TRIM = 2
    READ_ONLY = 6


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record.

    ``args`` holds the opcode-specific fields: ``(format, start_seq, sha)``
    for segment headers, ``(lpn, data)`` for writes (``data`` a uint8 bit
    array), ``(lpn,)`` for trims, ``()`` for read-only latches.
    """

    opcode: int
    seq: int
    args: tuple


def _pack_bits(data: np.ndarray) -> bytes:
    return np.packbits(np.asarray(data, dtype=np.uint8)).tobytes()


def _unpack_bits(raw: bytes, nbits: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=nbits)


def encode_record(record: JournalRecord) -> bytes:
    """Serialize one record to its on-disk framing (header + payload)."""
    opcode, seq, args = record.opcode, record.seq, record.args
    if opcode == OpCode.SEGMENT_HEADER:
        fmt, start_seq, sha = args
        body = _SEGMENT.pack(fmt, start_seq, sha)
    elif opcode == OpCode.WRITE:
        lpn, data = args
        bits = np.asarray(data, dtype=np.uint8)
        body = _WRITE.pack(lpn, bits.size) + _pack_bits(bits)
    elif opcode == OpCode.TRIM:
        body = _TRIM.pack(args[0])
    elif opcode == OpCode.READ_ONLY:
        body = b""
    else:
        raise DurabilityError(f"unknown journal opcode {opcode}")
    payload = _PREFIX.pack(opcode, seq) + body
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> JournalRecord:
    opcode, seq = _PREFIX.unpack_from(payload)
    body = payload[_PREFIX.size:]
    if opcode == OpCode.SEGMENT_HEADER:
        args: tuple = _SEGMENT.unpack(body)
    elif opcode == OpCode.WRITE:
        lpn, nbits = _WRITE.unpack_from(body)
        raw = body[_WRITE.size:]
        if len(raw) != (nbits + 7) // 8:
            raise ValueError("write record body length mismatch")
        args = (lpn, _unpack_bits(raw, nbits))
    elif opcode == OpCode.TRIM:
        args = _TRIM.unpack(body)
    elif opcode == OpCode.READ_ONLY:
        if body:
            raise ValueError("read-only record carries no fields")
        args = ()
    else:
        raise ValueError(f"unknown opcode {opcode}")
    return JournalRecord(opcode=opcode, seq=seq, args=args)


@dataclass(frozen=True)
class JournalScan:
    """Result of scanning one journal segment."""

    records: list[JournalRecord]
    #: Bytes past the last valid record (torn/corrupt tail, discarded).
    torn_bytes: int
    #: Why the scan stopped short, or ``None`` for a clean end-of-file.
    torn_reason: str | None


def scan_journal(path: str | os.PathLike) -> JournalScan:
    """Decode a segment, stopping cleanly at a torn tail.

    Records are appended in order and each is self-checking, so the first
    short length prefix, truncated payload or CRC mismatch marks the crash
    point; everything after it is discarded and reported as
    ``torn_bytes``.  An intact record that does not decode, or a segment
    header of a format this build does not read, raises
    :class:`~repro.errors.DurabilityError` instead: dropping the records
    after it would lose acknowledged writes.
    """
    records: list[JournalRecord] = []
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    total = len(data)
    torn_reason = None
    while offset < total:
        if total - offset < _HEADER.size:
            torn_reason = "short length prefix"
            break
        length, crc = _HEADER.unpack_from(data, offset)
        if length < _PREFIX.size or length > _MAX_PAYLOAD:
            torn_reason = "implausible record length"
            break
        start = offset + _HEADER.size
        if total - start < length:
            torn_reason = "truncated payload"
            break
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            torn_reason = "crc mismatch"
            break
        try:
            record = _decode_payload(payload)
        except (ValueError, struct.error) as exc:
            raise DurabilityError(
                f"journal segment {os.fspath(path)}: the record at byte "
                f"{offset} passes its CRC but does not decode ({exc})"
            ) from None
        if record.opcode == OpCode.SEGMENT_HEADER \
                and record.args[0] != JOURNAL_FORMAT:
            raise DurabilityError(
                f"journal segment {os.fspath(path)} uses record format "
                f"{record.args[0]}, this build reads formats {JOURNAL_FORMAT}"
            )
        records.append(record)
        offset = start + length
    return JournalScan(
        records=records, torn_bytes=total - offset, torn_reason=torn_reason
    )


class JournalWriter:
    """Appends records to one segment with configurable fsync batching.

    ``fsync_policy``:

    ``"always"``
        flush + fsync after every record — one disk sync per mutation,
        the safest and slowest setting.
    ``"batch"`` (default)
        records buffer in user space; :meth:`commit` flushes and fsyncs
        once per call.  The serving layer commits once per coalesced
        write batch (**group commit**), amortizing the sync.
    ``"none"``
        :meth:`commit` flushes to the OS page cache but never fsyncs.
        Still safe against process death (``kill -9`` loses only
        user-space buffers); only power loss can lose acknowledged data.

    The writer never acknowledges anything itself — callers must
    :meth:`commit` before releasing replies, which is what makes the log
    write-ahead.
    """

    def __init__(self, path: str | os.PathLike, fsync_policy: str = "batch") -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise DurabilityError(
                f"unknown fsync policy {fsync_policy!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        self.path = os.fspath(path)
        self.fsync_policy = fsync_policy
        # Truncate: a writer always starts a fresh segment.  Any same-named
        # file is an orphan from a crash mid-rotation (segment names embed
        # their start sequence, which is never reused by a durable
        # manifest), so clobbering it is the correct cleanup.
        self._fh: io.BufferedWriter | None = open(self.path, "wb")
        self._pending = 0

    @property
    def closed(self) -> bool:
        return self._fh is None

    def append(self, record: JournalRecord) -> None:
        """Buffer one record (and sync immediately under ``"always"``)."""
        if self._fh is None:
            raise DurabilityError("journal writer is closed")
        encoded = encode_record(record)
        self._fh.write(encoded)
        self._pending += 1
        _RECORDS.inc()
        _BYTES.inc(len(encoded))
        if self.fsync_policy == "always":
            self._sync()
            self._pending = 0

    def commit(self) -> int:
        """Make every buffered record durable per the fsync policy.

        Returns the number of records this commit covered.  Must be called
        before acknowledging the mutations those records describe.
        """
        if self._fh is None:
            raise DurabilityError("journal writer is closed")
        covered = self._pending
        if self.fsync_policy == "batch":
            self._sync()
        elif self.fsync_policy == "none":
            self._fh.flush()
        # "always" already synced in append().
        self._pending = 0
        _COMMITS.inc()
        return covered

    def _sync(self) -> None:
        start = time.perf_counter()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        _FSYNC_SECONDS.observe(time.perf_counter() - start)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            if self.fsync_policy != "none":
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
