"""DurableStore: crash recovery, replay semantics, checkpoint cadence."""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np
import pytest

from repro.durability import DurableStore, OpCode, scan_journal
from repro.durability.journal import (
    JOURNAL_FORMAT,
    JournalRecord,
    encode_record,
)
from repro.errors import DurabilityError
from repro.flash.geometry import FlashGeometry
from repro.ftl import StaticWearLeveling
from repro.ssd.device import SSD

GEOMETRY = FlashGeometry(
    blocks=8, pages_per_block=8, page_bits=64, erase_limit=100
)


def make_ssd() -> SSD:
    return SSD(geometry=GEOMETRY, scheme="uncoded", utilization=0.8)


def write_some(store, ssd, rng, count=30) -> dict[int, np.ndarray]:
    """Acknowledged writes: journaled, applied, committed."""
    written: dict[int, np.ndarray] = {}
    for _ in range(count):
        lpn = int(rng.integers(0, ssd.logical_pages))
        data = rng.integers(0, 2, size=GEOMETRY.page_bits).astype(np.uint8)
        store.journal_write(lpn, data)
        ssd.write(lpn, data)
        written[lpn] = data
    store.commit()
    return written


def segment_path(data_dir) -> str:
    (name,) = [n for n in os.listdir(data_dir) if n.endswith(".wal")]
    return os.path.join(data_dir, name)


class TestRecoveryRoundTrip:
    def test_fresh_directory_initializes(self, tmp_path) -> None:
        store = DurableStore(tmp_path / "d")
        report = store.recover(make_ssd())
        assert report.fresh
        assert store.ready
        names = sorted(os.listdir(tmp_path / "d"))
        assert any(n.endswith(".wal") for n in names)
        assert "manifest.json" in names

    def test_kill_nine_replay_recovers_every_acked_write(
        self, tmp_path, rng
    ) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=0)
        ssd = make_ssd()
        store.recover(ssd)
        written = write_some(store, ssd, rng)
        trimmed = next(iter(written))
        store.journal_trim(trimmed)
        ssd.trim(trimmed)
        store.commit()
        del written[trimmed]
        # kill -9: no close(), fresh process state.
        ssd2 = make_ssd()
        report = DurableStore(tmp_path / "d").recover(ssd2)
        assert not report.fresh
        assert report.replayed_trims == 1
        assert report.audit_failures == 0
        for lpn, data in written.items():
            assert np.array_equal(ssd2.read(lpn), data)
        assert not ssd2.read(trimmed).any()

    def test_second_recovery_uses_post_recovery_checkpoint(
        self, tmp_path, rng
    ) -> None:
        store = DurableStore(tmp_path / "d")
        ssd = make_ssd()
        store.recover(ssd)
        written = write_some(store, ssd, rng)
        first = DurableStore(tmp_path / "d").recover(make_ssd())
        assert first.replayed_writes > 0
        ssd3 = make_ssd()
        second = DurableStore(tmp_path / "d").recover(ssd3)
        assert second.replayed_writes == 0  # all folded into the checkpoint
        for lpn, data in written.items():
            assert np.array_equal(ssd3.read(lpn), data)

    def test_unacked_tail_after_last_commit_still_replays(
        self, tmp_path, rng
    ) -> None:
        # Records flushed by the OS but never commit()ed are *more* than we
        # promised to keep; replaying them is correct (they are a prefix of
        # what the client might have seen acknowledged).
        store = DurableStore(tmp_path / "d", fsync_policy="batch")
        ssd = make_ssd()
        store.recover(ssd)
        data = rng.integers(0, 2, size=GEOMETRY.page_bits).astype(np.uint8)
        store.journal_write(5, data)
        ssd.write(5, data)
        store.close()  # flushes buffered records, as the OS would keep them
        ssd2 = make_ssd()
        report = DurableStore(tmp_path / "d").recover(ssd2)
        assert report.replayed_writes == 1
        assert np.array_equal(ssd2.read(5), data)


class TestReplaySemantics:
    def test_duplicate_tail_record_is_idempotent(self, tmp_path, rng) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=0)
        ssd = make_ssd()
        store.recover(ssd)
        written = write_some(store, ssd, rng, count=10)
        store.close()
        path = segment_path(tmp_path / "d")
        records = scan_journal(path).records
        with open(path, "ab") as fh:
            fh.write(encode_record(records[-1]))  # crash-retried append
        ssd2 = make_ssd()
        report = DurableStore(tmp_path / "d").recover(ssd2)
        assert report.replayed_writes == 10  # duplicate skipped by seq
        for lpn, data in written.items():
            assert np.array_equal(ssd2.read(lpn), data)

    def test_torn_tail_discarded_and_audit_passes(self, tmp_path, rng) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=0)
        ssd = make_ssd()
        store.recover(ssd)
        written = write_some(store, ssd, rng, count=10)
        store.close()
        with open(segment_path(tmp_path / "d"), "ab") as fh:
            fh.write(b"\x40\x00\x00\x00partial")  # torn mid-payload
        ssd2 = make_ssd()
        report = DurableStore(tmp_path / "d").recover(ssd2)
        assert report.replayed_writes == 10
        assert report.torn_bytes_discarded == 11
        assert report.torn_reason == "truncated payload"
        assert report.audit_failures == 0
        for lpn, data in written.items():
            assert np.array_equal(ssd2.read(lpn), data)

    def test_read_only_latch_replays(self, tmp_path, rng) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=0)
        ssd = make_ssd()
        store.recover(ssd)
        write_some(store, ssd, rng, count=5)
        ssd.enter_read_only()
        store.note_read_only()
        store.note_read_only()  # idempotent: one record only
        store.commit()
        records = scan_journal(segment_path(tmp_path / "d")).records
        assert sum(r.opcode == OpCode.READ_ONLY for r in records) == 1
        ssd2 = make_ssd()
        report = DurableStore(tmp_path / "d").recover(ssd2)
        assert report.replayed_read_only == 1
        assert ssd2.read_only


class TestReplayRebuildsInternalState:
    """The journal holds host records only; replay rebuilds GC and wear.

    A batched, journaled run with checkpoints every 37 records crashes
    without ``close``; recovery into a fresh device must reproduce the
    live FTL and chip state, apart from the counters that the live side's
    batches and the recovery audit advance differently.
    """

    GEOMETRY = FlashGeometry(
        blocks=8, pages_per_block=4, page_bits=192, erase_limit=10_000
    )

    def make_ssd(self, scheme: str, kwargs: dict) -> SSD:
        return SSD(
            geometry=self.GEOMETRY, scheme=scheme, utilization=0.8,
            wear_leveling=StaticWearLeveling(threshold=2), **kwargs
        )

    @pytest.mark.parametrize(
        "scheme,kwargs",
        [("uncoded", {}), ("wom", {}),
         ("mfc-1/2-1bpc", {"constraint_length": 4})],
        ids=["uncoded", "wom", "mfc-1/2-1bpc"],
    )
    def test_recovered_state_equals_live_state(
        self, tmp_path, rng, scheme, kwargs
    ) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=37)
        live = self.make_ssd(scheme, kwargs)
        store.recover(live)
        bits = live.logical_page_bits
        # Fill every page once (cold data), then rewrite a hot quarter so
        # the wear spread grows until static wear leveling migrates.
        hot = live.logical_pages // 4
        batches = [list(range(live.logical_pages))]
        for _ in range(200):
            lanes = int(rng.integers(1, 9))
            batches.append([int(x) for x in rng.integers(0, hot, lanes)])
        for lpns in batches:
            words = rng.integers(0, 2, (len(lpns), bits), dtype=np.uint8)
            for lpn, data in zip(lpns, words):
                store.journal_write(lpn, data)
            live.write_batch(lpns, words)
            store.commit()
            store.maybe_checkpoint(live)
        assert live.ftl.stats.gc_runs > 0
        assert live.ftl.stats.migrations > 0
        # kill -9: no close(); recover into a fresh device.
        recovered = self.make_ssd(scheme, kwargs)
        report = DurableStore(tmp_path / "d").recover(recovered)
        assert report.replayed_writes > 0 and report.audit_failures == 0
        live_ftl = live.ftl.snapshot_state()
        recovered_ftl = recovered.ftl.snapshot_state()
        assert live_ftl.keys() == recovered_ftl.keys()
        for key in live_ftl.keys() - {"stats"}:
            assert recovered_ftl[key] == live_ftl[key], key
        live_chip = live.chip.snapshot_state()
        recovered_chip = recovered.chip.snapshot_state()
        assert recovered_chip["blocks"] == live_chip["blocks"]
        assert recovered_chip["noise_rng"] == live_chip["noise_rng"]
        for key, value in live_chip["stats"].items():
            if key != "page_reads":
                assert recovered_chip["stats"][key] == value, key


class TestCheckpointCadence:
    def test_auto_checkpoint_bounds_replay(self, tmp_path, rng) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=8)
        ssd = make_ssd()
        store.recover(ssd)
        for i in range(30):
            data = rng.integers(0, 2, size=GEOMETRY.page_bits).astype(np.uint8)
            store.journal_write(i % ssd.logical_pages, data)
            ssd.write(i % ssd.logical_pages, data)
            store.commit()
            store.maybe_checkpoint(ssd)
        report = DurableStore(tmp_path / "d").recover(make_ssd())
        assert report.replayed_writes <= 8

    def test_rotation_prunes_superseded_files(self, tmp_path, rng) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=0)
        ssd = make_ssd()
        store.recover(ssd)
        write_some(store, ssd, rng, count=5)
        store.checkpoint(ssd)
        store.checkpoint(ssd)
        names = sorted(os.listdir(tmp_path / "d"))
        assert sum(n.endswith(".ckpt") for n in names) == 1
        assert sum(n.endswith(".wal") for n in names) == 1

    def test_explicit_checkpoint_restores_without_replay(
        self, tmp_path, rng
    ) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=0)
        ssd = make_ssd()
        store.recover(ssd)
        written = write_some(store, ssd, rng)
        store.checkpoint(ssd)
        ssd2 = make_ssd()
        report = DurableStore(tmp_path / "d").recover(ssd2)
        assert report.replayed_writes == 0
        for lpn, data in written.items():
            assert np.array_equal(ssd2.read(lpn), data)


class TestRefusals:
    def test_newer_format_version_refused(self, tmp_path) -> None:
        store = DurableStore(tmp_path / "d")
        store.recover(make_ssd())
        store.close()
        manifest_path = tmp_path / "d" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DurabilityError, match="format version 99"):
            DurableStore(tmp_path / "d").recover(make_ssd())

    def test_mismatched_chain_refused(self, tmp_path, rng) -> None:
        store = DurableStore(tmp_path / "d", checkpoint_every=0)
        ssd = make_ssd()
        store.recover(ssd)
        write_some(store, ssd, rng, count=3)
        store.checkpoint(ssd)
        store.close()
        # Swap in a different (valid) checkpoint without updating the
        # journal's chained SHA: recovery must refuse the pair.
        from repro.durability.checkpoint import write_checkpoint

        manifest_path = tmp_path / "d" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        seq = manifest["checkpoint"]["seq"]
        other = make_ssd()
        name, sha = write_checkpoint(str(tmp_path / "d"),
                                     other.checkpoint(), seq)
        manifest["checkpoint"] = {"file": name, "sha256": sha, "seq": seq}
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DurabilityError, match="different"):
            DurableStore(tmp_path / "d").recover(make_ssd())

    def test_missing_segment_refused(self, tmp_path) -> None:
        store = DurableStore(tmp_path / "d")
        store.recover(make_ssd())
        store.close()
        os.unlink(segment_path(tmp_path / "d"))
        with pytest.raises(DurabilityError, match="missing"):
            DurableStore(tmp_path / "d").recover(make_ssd())

    def test_journaling_before_recover_refused(self, tmp_path) -> None:
        store = DurableStore(tmp_path / "d")
        with pytest.raises(DurabilityError, match="recover"):
            store.journal_write(0, np.zeros(64, dtype=np.uint8))
        with pytest.raises(DurabilityError, match="recover"):
            store.commit()

    def test_intact_record_that_does_not_decode_refused(
        self, tmp_path, rng
    ) -> None:
        # An opcode this build does not know, behind a valid CRC, is not a
        # torn tail: dropping the WRITE after it would lose an acked write.
        store = DurableStore(tmp_path / "d", checkpoint_every=0)
        store.recover(make_ssd())
        store.close()
        path = segment_path(tmp_path / "d")
        header = scan_journal(path).records[0]
        data = rng.integers(0, 2, size=GEOMETRY.page_bits).astype(np.uint8)
        first = encode_record(JournalRecord(OpCode.WRITE, 1, (3, data)))
        payload = struct.pack("<BQ", 9, 2)
        unknown = struct.pack("<II", len(payload), zlib.crc32(payload))
        second = encode_record(JournalRecord(OpCode.WRITE, 3, (4, data)))
        with open(path, "wb") as fh:
            fh.write(encode_record(header) + first + unknown + payload + second)
        offset = len(encode_record(header)) + len(first)
        with pytest.raises(DurabilityError, match=f"byte {offset}"):
            DurableStore(tmp_path / "d").recover(make_ssd())

    @pytest.mark.parametrize("fmt", [0, 1, JOURNAL_FORMAT + 1])
    def test_other_journal_format_refused(self, tmp_path, fmt) -> None:
        # Format 1 gets no reader of its own: it is refused like any other.
        store = DurableStore(tmp_path / "d")
        store.recover(make_ssd())
        store.close()
        path = segment_path(tmp_path / "d")
        header = scan_journal(path).records[0]
        _, start_seq, sha = header.args
        other = JournalRecord(
            OpCode.SEGMENT_HEADER, header.seq, (fmt, start_seq, sha)
        )
        with open(path, "wb") as fh:
            fh.write(encode_record(other))
        with pytest.raises(
            DurabilityError,
            match=f"record format {fmt}, this build reads formats "
                  f"{JOURNAL_FORMAT}$",
        ):
            DurableStore(tmp_path / "d").recover(make_ssd())
