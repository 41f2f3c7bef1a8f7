"""The durable store: journal + checkpoints + crash recovery for one SSD.

:class:`DurableStore` owns a data directory and implements the write-ahead
discipline around a live :class:`~repro.ssd.device.SSD`:

1. **Journal before apply** — the serving layer appends WRITE/TRIM records
   for a validated batch *before* touching the device.
2. **Commit before acknowledge** — after applying, one :meth:`commit` makes
   the whole batch durable (group commit: one fsync per coalesced batch
   under ``fsync_policy="batch"``), and only then do replies go out.
3. **Checkpoint to bound replay** — :meth:`maybe_checkpoint` snapshots the
   full device state every ``checkpoint_every`` journal records, rotates to
   a fresh journal segment, and deletes the superseded files.

Recovery (:meth:`recover`) inverts the discipline: restore the newest valid
checkpoint, replay the journal tail through the normal host write path
(regenerating GC/wear decisions instead of trusting them), discard any torn
tail, audit every logical page with the survivor-audit machinery, and
finally take a fresh checkpoint so the next crash replays from here.

The journal holds host records (WRITE, TRIM) and the end-of-life READ_ONLY
latch, nothing else.  Garbage collection, block retirement and wear-leveling
migration are not journaled: the FTL is deterministic, so replaying the
host records on the checkpointed device rebuilds them exactly.
"""

from __future__ import annotations

import binascii
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    DurabilityError,
    FTLError,
    OutOfSpaceError,
    ProgramFailedError,
    ReadOnlyModeError,
)
from repro.durability.checkpoint import (
    MANIFEST_NAME,
    journal_name,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
    write_manifest,
)
from repro.durability.journal import (
    JOURNAL_FORMAT,
    JournalRecord,
    JournalWriter,
    OpCode,
    scan_journal,
)
from repro.obs import registry as _metrics
from repro.obs.tracing import span as _span
from repro.ssd.device import SSD
from repro.ssd.simulator import audit_survivors

__all__ = ["DurableStore", "RecoveryReport"]

_RECOVERIES = _metrics.counter("durability.recoveries")
_REPLAYED_WRITES = _metrics.counter("durability.replayed_writes")
_REPLAYED_TRIMS = _metrics.counter("durability.replayed_trims")
_TORN_BYTES = _metrics.counter("durability.torn_bytes_discarded")
_AUDIT_FAILURES = _metrics.counter("durability.audit_failures")
_CHECKPOINTS = _metrics.counter("durability.checkpoints")
_RECOVERY_TOTAL = _metrics.gauge("durability.recovery_records_total")
_RECOVERY_REPLAYED = _metrics.gauge("durability.recovery_replayed_records")
_RECOVERY_PROGRESS = _metrics.gauge("durability.recovery_progress")

_ZERO_SHA = b"\x00" * 32


@dataclass
class RecoveryReport:
    """What :meth:`DurableStore.recover` found and did.

    ``skipped_applies`` counts replayed records whose apply failed the same
    way it must have failed before the crash (device read-only or out of
    space) — those operations were never acknowledged, so skipping them
    loses nothing.
    """

    fresh: bool = False
    checkpoint_seq: int = 0
    last_seq: int = 0
    replayed_writes: int = 0
    replayed_trims: int = 0
    replayed_read_only: int = 0
    skipped_applies: int = 0
    torn_bytes_discarded: int = 0
    torn_reason: str | None = None
    audited_pages: int = 0
    audit_failures: int = 0

    def summary(self) -> str:
        """One human line for the serve banner / logs."""
        if self.fresh:
            return "durability: fresh data directory initialized"
        parts = [
            f"checkpoint seq {self.checkpoint_seq}",
            f"replayed {self.replayed_writes} writes",
            f"{self.replayed_trims} trims",
        ]
        if self.skipped_applies:
            parts.append(f"{self.skipped_applies} unappliable (never acked)")
        if self.torn_bytes_discarded:
            parts.append(
                f"discarded {self.torn_bytes_discarded}B torn tail "
                f"({self.torn_reason})"
            )
        parts.append(
            f"audit {self.audited_pages} pages / {self.audit_failures} failed"
        )
        return "durability: recovered — " + ", ".join(parts)


class DurableStore:
    """Write-ahead journal + checkpoint manager over one data directory.

    Single-threaded by design: every method must run on the thread that
    owns the device (the serving layer's device thread).  ``checkpoint_every``
    is a journal-record count; 0 disables automatic checkpoints (explicit
    :meth:`checkpoint` calls still work).
    """

    def __init__(
        self,
        data_dir: str | os.PathLike,
        fsync_policy: str = "batch",
        checkpoint_every: int = 4096,
    ) -> None:
        if checkpoint_every < 0:
            raise DurabilityError("checkpoint_every must be >= 0")
        self.data_dir = os.fspath(data_dir)
        self.fsync_policy = fsync_policy
        self.checkpoint_every = checkpoint_every
        self._writer: JournalWriter | None = None
        self._next_seq = 1
        self._records_since_checkpoint = 0
        self._checkpoint_sha = _ZERO_SHA
        self._read_only_journaled = False
        #: Monotonic time of the oldest uncommitted journal append (None
        #: when everything appended so far has been fsynced).
        self._pending_since: float | None = None
        #: Replay progress fraction; 1.0 once recovery finished (and on
        #: stores that never needed a replay).
        self._recovery_progress = 1.0
        os.makedirs(self.data_dir, exist_ok=True)

    @property
    def ready(self) -> bool:
        """True once :meth:`recover` succeeded and the journal is open."""
        return self._writer is not None

    @property
    def fsync_lag_seconds(self) -> float:
        """Age of the oldest journaled-but-not-fsynced record (0.0 if none).

        A growing lag means mutations sit exposed between journal append
        and group commit — the health endpoints surface it so a wedged or
        slow fsync path is visible before a crash makes it matter.
        """
        if self._pending_since is None:
            return 0.0
        return time.monotonic() - self._pending_since

    @property
    def recovery_progress(self) -> float:
        """Journal-replay progress in [0, 1]; 1.0 outside recovery."""
        return self._recovery_progress

    # -- recovery -------------------------------------------------------------

    def recover(self, ssd: SSD) -> RecoveryReport:
        """Bring ``ssd`` to the last durable state and open a fresh segment.

        Fresh directories are laid out (empty checkpoint, empty journal);
        existing ones are restored + replayed + audited.  Either way the
        store is ready for :meth:`journal_write` when this returns.
        """
        with _span("durability.recovery") as event:
            report = self._recover_inner(ssd)
            if event is not None:
                event["attrs"]["replayed_writes"] = report.replayed_writes
                event["attrs"]["fresh"] = report.fresh
        _RECOVERIES.inc()
        _REPLAYED_WRITES.inc(report.replayed_writes)
        _REPLAYED_TRIMS.inc(report.replayed_trims)
        _TORN_BYTES.inc(report.torn_bytes_discarded)
        _AUDIT_FAILURES.inc(report.audit_failures)
        return report

    def _recover_inner(self, ssd: SSD) -> RecoveryReport:
        manifest = read_manifest(self.data_dir)
        report = RecoveryReport()
        if manifest is None:
            report.fresh = True
            self._checkpoint_sha = _ZERO_SHA
            self._next_seq = 1
            self._open_segment(start_seq=1, checkpoint=None)
            return report

        applied_seq = 0
        checkpoint_entry = manifest.get("checkpoint")
        if checkpoint_entry is not None:
            state = load_checkpoint(self.data_dir, checkpoint_entry)
            ssd.restore(state)
            applied_seq = int(checkpoint_entry["seq"])
            expected_sha = binascii.unhexlify(checkpoint_entry["sha256"])
        else:
            expected_sha = _ZERO_SHA
        report.checkpoint_seq = applied_seq

        journal_entry = manifest["journal"]
        segment_path = os.path.join(self.data_dir, journal_entry["file"])
        if not os.path.exists(segment_path):
            raise DurabilityError(
                f"manifest names journal segment {journal_entry['file']} "
                f"but the file is missing from {self.data_dir}"
            )
        scan = scan_journal(segment_path)
        report.torn_bytes_discarded = scan.torn_bytes
        report.torn_reason = scan.torn_reason
        records = scan.records
        if records:
            header = records[0]
            if header.opcode != OpCode.SEGMENT_HEADER:
                raise DurabilityError(
                    f"journal segment {segment_path} does not start with a "
                    "segment header; it was not written by this store"
                )
            _, _, sha = header.args
            if sha != expected_sha:
                raise DurabilityError(
                    f"journal segment {segment_path} extends a different "
                    "checkpoint than the manifest names; refusing to replay "
                    "a mismatched chain"
                )
            self._replay(ssd, records[1:], applied_seq, report)
        report.last_seq = max(
            [applied_seq] + [record.seq for record in records[1:]]
        )

        report.audited_pages, report.audit_failures = audit_survivors(ssd)

        # Post-recovery rotation: checkpoint what we just rebuilt so the
        # next crash replays from here, not from the old checkpoint again.
        self._next_seq = report.last_seq + 1
        self._rotate(ssd)
        return report

    def _replay(
        self,
        ssd: SSD,
        records: list[JournalRecord],
        applied_seq: int,
        report: RecoveryReport,
    ) -> None:
        """Re-apply the journal tail through the normal host write path.

        Records at or below the replay cursor are duplicates — either the
        checkpoint already contains their effect, or a crash-retried
        append wrote the same record twice — and are skipped, which makes
        replay idempotent.  Apply failures are
        tolerated: a record that cannot apply now (read-only, out of
        space) could not have been acknowledged then either, because the
        original apply must have failed the same deterministic way.
        """
        cursor = applied_seq
        total = len(records)
        self._recovery_progress = 0.0 if total else 1.0
        _RECOVERY_TOTAL.set(total)
        _RECOVERY_REPLAYED.set(0)
        _RECOVERY_PROGRESS.set(self._recovery_progress)
        try:
            for index, record in enumerate(records, start=1):
                self._recovery_progress = index / total
                _RECOVERY_REPLAYED.set(index)
                _RECOVERY_PROGRESS.set(self._recovery_progress)
                if record.seq <= cursor:
                    continue
                cursor = record.seq
                if record.opcode == OpCode.WRITE:
                    lpn, data = record.args
                    try:
                        ssd.write(int(lpn), np.asarray(data, dtype=np.uint8))
                        report.replayed_writes += 1
                    except (
                        ReadOnlyModeError, OutOfSpaceError,
                        ProgramFailedError, FTLError,
                    ):
                        report.skipped_applies += 1
                elif record.opcode == OpCode.TRIM:
                    try:
                        ssd.trim(int(record.args[0]))
                        report.replayed_trims += 1
                    except (ReadOnlyModeError, FTLError):
                        report.skipped_applies += 1
                elif record.opcode == OpCode.READ_ONLY:
                    ssd.enter_read_only()
                    report.replayed_read_only += 1
                else:  # a segment header, the one opcode left
                    raise DurabilityError(
                        "segment header found mid-segment; journal corrupt"
                    )
        finally:
            self._recovery_progress = 1.0
            _RECOVERY_PROGRESS.set(1.0)

    # -- live journaling ------------------------------------------------------

    def _append(self, opcode: int, args: tuple) -> int:
        if self._writer is None:
            raise DurabilityError("store has no open journal; recover() first")
        seq = self._next_seq
        self._next_seq += 1
        self._writer.append(JournalRecord(opcode=opcode, seq=seq, args=args))
        self._records_since_checkpoint += 1
        if self._pending_since is None:
            self._pending_since = time.monotonic()
        return seq

    def journal_write(self, lpn: int, data: np.ndarray) -> int:
        """Append one host WRITE record (call before applying it)."""
        return self._append(OpCode.WRITE, (int(lpn), data))

    def journal_trim(self, lpn: int) -> int:
        """Append one host TRIM record (call before applying it)."""
        return self._append(OpCode.TRIM, (int(lpn),))

    def note_read_only(self) -> None:
        """Journal the end-of-life latch (once); replay re-latches it."""
        if self._read_only_journaled or self._writer is None:
            return
        self._read_only_journaled = True
        self._append(OpCode.READ_ONLY, ())

    def commit(self) -> int:
        """Group-commit every record appended since the last commit.

        One fsync per call under ``fsync_policy="batch"`` — the caller
        must not acknowledge the covered mutations before this returns.
        """
        if self._writer is None:
            raise DurabilityError("store has no open journal; recover() first")
        committed = self._writer.commit()
        self._pending_since = None
        return committed

    # -- checkpointing --------------------------------------------------------

    def maybe_checkpoint(self, ssd: SSD) -> bool:
        """Checkpoint if ``checkpoint_every`` records accumulated."""
        if (
            self.checkpoint_every > 0
            and self._records_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint(ssd)
            return True
        return False

    def checkpoint(self, ssd: SSD) -> None:
        """Snapshot the device, rotate the journal, prune old files."""
        with _span("durability.checkpoint") as event:
            self._rotate(ssd)
            if event is not None:
                event["attrs"]["seq"] = self._next_seq - 1

    def _rotate(self, ssd: SSD) -> None:
        """The checkpoint sequence: ckpt file -> new segment -> manifest.

        Ordering is what makes a crash at any point recoverable: the new
        manifest is written only after both the checkpoint and the new
        segment (with its chained header) are durable, and old files are
        deleted only after the manifest rename.  The checkpoint consumes a
        sequence number of its own, so its file name — and the new
        segment's — can never collide with anything an older manifest still
        references; files orphaned by a crash mid-rotation are simply
        overwritten or pruned later.
        """
        seq = self._next_seq
        self._next_seq += 1
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        name, sha_hex = write_checkpoint(self.data_dir, ssd.checkpoint(), seq)
        self._checkpoint_sha = binascii.unhexlify(sha_hex)
        start_seq = self._next_seq
        self._open_segment(
            start_seq=start_seq,
            checkpoint={"file": name, "sha256": sha_hex, "seq": seq},
        )
        self._prune(keep={name, journal_name(start_seq), MANIFEST_NAME})
        self._records_since_checkpoint = 0
        _CHECKPOINTS.inc()

    def _open_segment(self, start_seq: int, checkpoint: dict | None) -> None:
        """Create a journal segment + header and point the manifest at it."""
        segment = journal_name(start_seq)
        writer = JournalWriter(
            os.path.join(self.data_dir, segment), self.fsync_policy
        )
        writer.append(
            JournalRecord(
                opcode=OpCode.SEGMENT_HEADER,
                seq=start_seq - 1,
                args=(JOURNAL_FORMAT, start_seq, self._checkpoint_sha),
            )
        )
        writer.commit()
        self._writer = writer
        write_manifest(
            self.data_dir,
            {
                "checkpoint": checkpoint,
                "journal": {"file": segment, "start_seq": start_seq},
            },
        )

    def _prune(self, keep: set[str]) -> None:
        """Delete superseded checkpoints/segments and orphaned temp files."""
        for name in os.listdir(self.data_dir):
            if name in keep:
                continue
            if name.endswith((".ckpt", ".wal", ".tmp")):
                try:
                    os.unlink(os.path.join(self.data_dir, name))
                except OSError:
                    pass  # best-effort; the next rotation retries

    def close(self) -> None:
        """Flush and close the journal (no final checkpoint; crash-safe)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
