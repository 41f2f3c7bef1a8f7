"""Journal framing, fsync policies, and the torn-write matrix."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.durability.journal import (
    JOURNAL_FORMAT,
    JournalRecord,
    JournalWriter,
    OpCode,
    encode_record,
    scan_journal,
)
from repro.errors import DurabilityError


def _bits(rng, n=64):
    return rng.integers(0, 2, size=n).astype(np.uint8)


def _sample_records(rng) -> list[JournalRecord]:
    """One record of every opcode, with realistic args."""
    return [
        JournalRecord(OpCode.SEGMENT_HEADER, 0,
                      (JOURNAL_FORMAT, 1, b"\x5a" * 32)),
        JournalRecord(OpCode.WRITE, 1, (7, _bits(rng))),
        JournalRecord(OpCode.TRIM, 2, (7,)),
        JournalRecord(OpCode.READ_ONLY, 3, ()),
    ]


def _write_segment(path, records, fsync_policy="batch"):
    writer = JournalWriter(path, fsync_policy)
    for record in records:
        writer.append(record)
    writer.commit()
    writer.close()


class TestRecordRoundTrip:
    def test_every_opcode_survives_encode_scan(self, tmp_path, rng) -> None:
        records = _sample_records(rng)
        path = tmp_path / "seg.wal"
        _write_segment(path, records)
        scan = scan_journal(path)
        assert scan.torn_bytes == 0 and scan.torn_reason is None
        assert len(scan.records) == len(records)
        for original, decoded in zip(records, scan.records):
            assert decoded.opcode == original.opcode
            assert decoded.seq == original.seq
            if original.opcode == OpCode.WRITE:
                assert decoded.args[0] == original.args[0]
                assert np.array_equal(decoded.args[1], original.args[1])
            else:
                assert decoded.args == original.args

    def test_write_preserves_odd_bit_counts(self, tmp_path, rng) -> None:
        # 13 bits does not fill a byte; unpack must not grow the array.
        record = JournalRecord(OpCode.WRITE, 9, (3, _bits(rng, 13)))
        path = tmp_path / "odd.wal"
        _write_segment(path, [record])
        (decoded,) = scan_journal(path).records
        assert decoded.args[1].shape == (13,)
        assert np.array_equal(decoded.args[1], record.args[1])

    def test_unknown_opcode_rejected_at_encode(self) -> None:
        with pytest.raises(DurabilityError):
            encode_record(JournalRecord(99, 1, ()))


class TestTornWriteMatrix:
    """Every way a crash can mangle the tail, and that replay stops clean."""

    def _intact(self, tmp_path, rng):
        records = _sample_records(rng)
        path = tmp_path / "seg.wal"
        _write_segment(path, records)
        return path, records, path.read_bytes()

    def test_truncated_mid_length_prefix(self, tmp_path, rng) -> None:
        path, records, raw = self._intact(tmp_path, rng)
        last = len(raw) - len(encode_record(records[-1]))
        path.write_bytes(raw[:last + 2])  # 2 of 8 header bytes
        scan = scan_journal(path)
        assert [r.seq for r in scan.records] == [r.seq for r in records[:-1]]
        assert scan.torn_bytes == 2
        assert scan.torn_reason == "short length prefix"

    def test_truncated_mid_payload(self, tmp_path, rng) -> None:
        path, records, raw = self._intact(tmp_path, rng)
        path.write_bytes(raw[:-3])
        scan = scan_journal(path)
        assert [r.seq for r in scan.records] == [r.seq for r in records[:-1]]
        assert scan.torn_reason == "truncated payload"

    def test_corrupt_crc(self, tmp_path, rng) -> None:
        path, records, raw = self._intact(tmp_path, rng)
        flipped = bytearray(raw)
        flipped[-1] ^= 0xFF  # damage the final record's payload
        path.write_bytes(bytes(flipped))
        scan = scan_journal(path)
        assert [r.seq for r in scan.records] == [r.seq for r in records[:-1]]
        assert scan.torn_reason == "crc mismatch"
        assert scan.torn_bytes == len(encode_record(records[-1]))

    def test_duplicate_tail_record(self, tmp_path, rng) -> None:
        # A retried append can duplicate the tail; both copies decode and
        # the replay layer deduplicates by sequence number.
        path, records, raw = self._intact(tmp_path, rng)
        tail = encode_record(records[-1])
        path.write_bytes(raw + tail)
        scan = scan_journal(path)
        assert scan.torn_bytes == 0
        assert [r.seq for r in scan.records] == (
            [r.seq for r in records] + [records[-1].seq]
        )

    def test_implausible_length_prefix(self, tmp_path, rng) -> None:
        path, records, raw = self._intact(tmp_path, rng)
        path.write_bytes(raw + struct.pack("<II", 1 << 30, 0) + b"x" * 64)
        scan = scan_journal(path)
        assert len(scan.records) == len(records)
        assert scan.torn_reason == "implausible record length"

    def test_garbage_after_valid_records(self, tmp_path, rng) -> None:
        path, records, raw = self._intact(tmp_path, rng)
        path.write_bytes(raw + b"\x0b\x00\x00\x00GARBAGEBYTES")
        scan = scan_journal(path)
        assert len(scan.records) == len(records)
        assert scan.torn_bytes > 0


class TestWriterPolicies:
    def test_unknown_policy_rejected(self, tmp_path) -> None:
        with pytest.raises(DurabilityError):
            JournalWriter(tmp_path / "x.wal", "sometimes")

    @pytest.mark.parametrize("policy", ["always", "batch", "none"])
    def test_all_policies_produce_identical_bytes(
        self, tmp_path, rng, policy
    ) -> None:
        records = _sample_records(rng)
        path = tmp_path / f"{policy}.wal"
        _write_segment(path, records, fsync_policy=policy)
        reference = tmp_path / "ref.wal"
        _write_segment(reference, records)
        assert path.read_bytes() == reference.read_bytes()

    def test_commit_reports_covered_records(self, tmp_path, rng) -> None:
        writer = JournalWriter(tmp_path / "c.wal", "batch")
        for record in _sample_records(rng)[:3]:
            writer.append(record)
        assert writer.commit() == 3
        assert writer.commit() == 0  # nothing new since
        writer.close()

    def test_closed_writer_refuses_appends(self, tmp_path, rng) -> None:
        writer = JournalWriter(tmp_path / "d.wal", "batch")
        writer.close()
        assert writer.closed
        with pytest.raises(DurabilityError):
            writer.append(_sample_records(rng)[1])
        with pytest.raises(DurabilityError):
            writer.commit()

    def test_opening_truncates_stale_segment(self, tmp_path, rng) -> None:
        # A same-named file can only be a crash orphan; a fresh writer must
        # not append after its stale contents.
        path = tmp_path / "stale.wal"
        path.write_bytes(b"stale-bytes")
        _write_segment(path, _sample_records(rng)[:2])
        scan = scan_journal(path)
        assert len(scan.records) == 2 and scan.torn_bytes == 0
