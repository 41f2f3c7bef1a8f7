"""Run a workload against an SSD until the device wears out."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    OutOfSpaceError,
    ProgramFailedError,
    ReadOnlyModeError,
    UncorrectableReadError,
)
from repro.obs import registry as _metrics
from repro.obs.tracing import span as _span
from repro.ssd.device import SSD
from repro.workload import OpKind, Workload, payload_for

__all__ = ["DeviceLifetimeResult", "audit_survivors", "run_until_death"]


def audit_survivors(ssd: SSD) -> tuple[int, int]:
    """Read back every logical page; returns ``(pages_read, failed_pages)``.

    The survivor audit: each failed read is one host-visible data-loss
    event (the FTL counts it in ``uncorrectable_reads`` /
    ``data_loss_events`` as usual).  Used at end-of-life by
    :func:`run_until_death` and after crash recovery by the durability
    layer, so both report loss with identical semantics.
    """
    failures = 0
    for lpn in range(ssd.logical_pages):
        try:
            ssd.read(lpn)
        except UncorrectableReadError:
            failures += 1
    return ssd.logical_pages, failures


@dataclass(frozen=True)
class DeviceLifetimeResult:
    """Outcome of a device-lifetime simulation.

    ``host_writes`` counts logical page writes accepted before death;
    ``host_bits_written`` normalizes by logical page size so coded and
    uncoded devices are comparable (a rough "terabytes written" figure).

    The reliability fields summarize how the device degraded on the way:
    chip-level ``program_failures`` the FTL absorbed, ``read_retries``
    climbed in the recovery ladder, ``uncorrectable_reads`` surfaced to the
    host, pages the background scrub refreshed, and ``data_loss_events``
    (host reads that returned no usable data).  ``first_failure_write`` is
    the host-write count at the first program failure (None if the run saw
    none) — the onset of degradation, as opposed to death.
    """

    scheme_name: str
    host_writes: int
    host_bits_written: int
    block_erases: int
    in_place_rewrites: int
    gc_relocations: int
    wear_spread: int
    retired_blocks: int
    bits_programmed: int = 0
    program_failures: int = 0
    read_retries: int = 0
    uncorrectable_reads: int = 0
    scrub_relocations: int = 0
    data_loss_events: int = 0
    host_reads: int = 0
    host_bits_read: int = 0
    first_failure_write: int | None = None
    host_trims: int = 0

    @property
    def writes_per_erase(self) -> float:
        """Host writes amortized per block erase (device-level lifetime gain)."""
        if self.block_erases == 0:
            return float("inf")
        return self.host_writes / self.block_erases

    @property
    def charge_per_host_bit(self) -> float:
        """Physical 0->1 transitions per host data bit stored (energy proxy).

        Coding schemes inject charge into more raw cells per access, but
        balanced selection (MFCs) programs few bits per update; this metric
        exposes the net effect.
        """
        if self.host_bits_written == 0:
            return float("inf")
        return self.bits_programmed / self.host_bits_written

    @property
    def uber(self) -> float:
        """Uncorrectable bit error rate: failed reads per host bit read."""
        if self.host_bits_read == 0:
            return 0.0
        return self.uncorrectable_reads / self.host_bits_read


def run_until_death(
    ssd: SSD,
    workload: Workload,
    max_writes: int = 1_000_000,
    scrub_interval: int | None = None,
    audit: bool | None = None,
    max_ops: int | None = None,
) -> DeviceLifetimeResult:
    """Drive ``workload`` into ``ssd`` until it can no longer accept writes.

    The workload is a typed op stream (:class:`~repro.workload.ops.Op`):
    WRITEs carry deterministic payload seeds, READs exercise the read path
    (uncorrectable reads are absorbed into the FTL's loss accounting, not
    raised), and TRIMs discard pages.

    Death is any of the end-of-life signals — the FTL running out of free
    pages (:class:`~repro.errors.OutOfSpaceError`), a program failure the
    retry ladder could not ride out
    (:class:`~repro.errors.ProgramFailedError`), or the device having
    latched read-only.  The device is left in read-only mode either way, so
    callers can keep reading surviving data from the corpse.

    Stops early after ``max_writes`` writes (returning the partial result)
    so callers can bound simulation time; ``max_ops`` additionally bounds
    total ops of any kind (default ``10 * max_writes``), which keeps
    read-heavy streams from running unbounded.

    ``scrub_interval`` runs one background scrub pass every that many host
    writes.  ``audit`` reads back every logical page at end of run,
    counting pages that fail ECC recovery as data-loss events; it defaults
    to on exactly when the device has a fault injector attached.
    """
    if scrub_interval is not None and scrub_interval < 1:
        raise ConfigurationError("scrub_interval must be a positive write count")
    if max_ops is None:
        max_ops = 10 * max_writes
    writes = 0
    trims = 0
    ops = 0
    bits = ssd.logical_page_bits
    first_failure: int | None = None
    stats = ssd.ftl.stats
    with _span(
        "ssd.run_until_death", scheme=ssd.scheme_name, max_writes=max_writes
    ) as event:
        while writes < max_writes and ops < max_ops:
            op = next(workload)
            ops += 1
            if op.kind is OpKind.READ:
                try:
                    ssd.read(op.lpn)
                except UncorrectableReadError:
                    pass  # already counted by the FTL's loss accounting
                continue
            if op.kind is OpKind.TRIM:
                try:
                    ssd.trim(op.lpn)
                except ReadOnlyModeError:
                    break  # device latched end-of-life under our feet
                trims += 1
                continue
            try:
                ssd.write(op.lpn, payload_for(op, bits))
            except (OutOfSpaceError, ProgramFailedError, ReadOnlyModeError):
                ssd.enter_read_only()
                break
            writes += 1
            if first_failure is None and stats.program_failures > 0:
                first_failure = writes
            if scrub_interval is not None and writes % scrub_interval == 0:
                ssd.scrub()
        if first_failure is None and stats.program_failures > 0:
            first_failure = writes
        if audit is None:
            audit = ssd.faults is not None
        if audit:
            audit_survivors(ssd)
        if event is not None:
            event["attrs"]["host_writes"] = writes
    # The stats dataclasses have no live mirror in the registry; the run is
    # their publishing scope, so the finished totals are absorbed here, once.
    registry = _metrics.get_registry()
    for prefix, totals in ssd.counter_totals().items():
        registry.absorb(prefix, totals)
    registry.gauge("flash.max_block_erases").set(
        ssd.chip.stats.max_block_erases
    )
    return DeviceLifetimeResult(
        scheme_name=ssd.scheme_name,
        host_writes=writes,
        host_bits_written=writes * bits,
        block_erases=ssd.chip.stats.block_erases,
        in_place_rewrites=stats.in_place_rewrites,
        gc_relocations=stats.gc_relocations,
        wear_spread=ssd.wear_spread(),
        retired_blocks=stats.retired_blocks,
        bits_programmed=ssd.chip.stats.bits_programmed,
        program_failures=stats.program_failures,
        read_retries=stats.read_retries,
        uncorrectable_reads=stats.uncorrectable_reads,
        scrub_relocations=stats.scrub_relocations,
        data_loss_events=stats.data_loss_events,
        host_reads=stats.host_reads,
        host_bits_read=stats.host_reads * bits,
        first_failure_write=first_failure,
        host_trims=trims,
    )
