"""A complete simulated SSD: chip + FTL + rewriting scheme."""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.factory import make_scheme
from repro.errors import (
    ConfigurationError,
    OutOfSpaceError,
    ProgramFailedError,
    ReadOnlyModeError,
)
from repro.faults import FaultInjector, FaultProfile, FaultSchedule
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.noise import WearNoiseModel
from repro.ftl.ftl import BasicFTL
from repro.ftl.rewriting_ftl import RewritingFTL
from repro.ftl.wear_leveling import WearLevelingPolicy

__all__ = ["SSD"]


class SSD:
    """A device assembling the full stack for a chosen scheme.

    ``scheme="uncoded"`` gives the classic log-structured device (one fresh
    page per host write); any page-granularity scheme name accepted by
    :func:`repro.core.factory.make_scheme` enables the rewriting FTL.

    ``utilization`` sets how much of the (rate-adjusted) capacity is exposed
    as logical pages; the rest is over-provisioning for GC.

    ``noise_model`` attaches wear-dependent read noise to the chip: host
    reads then see raw bit errors, which only ECC-integrated schemes
    (``mfc-ecc``) survive — the Section V.B argument at device level.

    ``fault_profile`` / ``fault_schedule`` attach a deterministic
    :class:`~repro.faults.FaultInjector` (seeded by ``fault_seed``) to the
    chip: programs can then fail outright, cells can stick at manufacture
    or with wear, and reads accumulate disturb/retention damage.  The FTL
    degrades gracefully (program retry, block retirement, read-retry
    ladder, scrub); once the device cannot accept writes it latches into
    **read-only mode**: further writes raise
    :class:`~repro.errors.ReadOnlyModeError` while reads keep working, the
    end-of-life behaviour real SSDs promise.
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        scheme: str = "uncoded",
        utilization: float = 0.8,
        wear_leveling: WearLevelingPolicy | None = None,
        noise_model: WearNoiseModel | None = None,
        noise_seed: int = 0,
        fault_profile: FaultProfile | None = None,
        fault_schedule: FaultSchedule | None = None,
        fault_seed: int = 0,
        **scheme_kwargs,
    ) -> None:
        if not 0 < utilization <= 1:
            raise ConfigurationError("utilization must lie in (0, 1]")
        self.geometry = geometry or FlashGeometry()
        if fault_profile is not None or fault_schedule is not None:
            self.faults: FaultInjector | None = FaultInjector(
                profile=fault_profile,
                schedule=fault_schedule,
                seed=fault_seed,
            )
        else:
            self.faults = None
        self.chip = FlashChip(self.geometry, noise_model=noise_model,
                              noise_seed=noise_seed,
                              fault_injector=self.faults)
        self.scheme_name = scheme.lower()
        self._read_only = False
        usable_pages = (
            self.geometry.blocks - BasicFTL.RESERVE_BLOCKS
        ) * self.geometry.pages_per_block
        logical_pages = max(1, int(usable_pages * utilization))
        if self.scheme_name == "uncoded":
            self.scheme = None
            make_ftl = BasicFTL
        else:
            self.scheme = make_scheme(
                self.scheme_name, self.geometry.page_bits, **scheme_kwargs
            )
            make_ftl = partial(RewritingFTL, scheme=self.scheme)
        self.ftl: BasicFTL = make_ftl(
            self.chip, logical_pages=logical_pages, wear_leveling=wear_leveling
        )

    @property
    def logical_pages(self) -> int:
        return self.ftl.mapping.logical_pages

    @property
    def logical_page_bits(self) -> int:
        """Host-visible bits per logical page (smaller for coded devices)."""
        return self.ftl.dataword_bits

    @property
    def host_visible_bits(self) -> int:
        return self.logical_pages * self.logical_page_bits

    @property
    def read_only(self) -> bool:
        """True once the device has latched into end-of-life read-only mode."""
        return self._read_only

    @property
    def lifetime_state(self) -> str:
        """Public end-of-life state: ``healthy``, ``degraded``, ``read_only``.

        ``degraded`` means the FTL has already absorbed damage (failed
        programs, retired blocks, uncorrectable reads) but still accepts
        writes.  Callers — the serving layer in particular — should use
        this instead of poking ``ssd.ftl`` internals.
        """
        if self._read_only:
            return "read_only"
        stats = self.ftl.stats
        if (
            stats.program_failures
            or stats.retired_blocks
            or stats.uncorrectable_reads
        ):
            return "degraded"
        return "healthy"

    def counter_totals(self) -> dict[str, dict[str, int]]:
        """Every event count the device keeps, by metrics-registry prefix.

        The int fields of ``chip.stats``, ``ftl.stats`` and (with an
        injector) ``faults.counters`` — not derived maxima such as
        ``max_block_erases``, which do not sum.  This is the one list of
        what :meth:`~repro.obs.registry.MetricsRegistry.absorb` publishes
        for a device.  Only fixed-size instance dicts are read, so the
        serving layer's event loop may call it while the device thread
        counts.
        """
        sources = {"flash": self.chip.stats, "ftl": self.ftl.stats}
        if self.faults is not None:
            sources["faults"] = self.faults.counters
        return {
            prefix: {
                name: value for name, value in vars(stats).items()
                if isinstance(value, int)
            }
            for prefix, stats in sources.items()
        }

    def enter_read_only(self) -> None:
        """Latch the device read-only (idempotent, never un-latched)."""
        self._read_only = True

    def write(self, lpn: int, data: np.ndarray) -> None:
        if self._read_only:
            raise ReadOnlyModeError(
                "device is in end-of-life read-only mode; stored data "
                "remains readable"
            )
        try:
            self.ftl.write(lpn, data)
        except (OutOfSpaceError, ProgramFailedError):
            # The FTL exhausted its recovery options (no free pages left,
            # or a program kept failing past the retry budget).  Latch
            # read-only so stored data stays reachable, and let the caller
            # see the original failure.
            self.enter_read_only()
            raise

    def write_batch(self, lpns, datawords: np.ndarray) -> None:
        """Write several logical pages in order (the FTL's ``write_batch``).

        Rewriting devices encode the batch's in-place rewrites in one
        lockstep search first; the outcome equals :meth:`write` per page.
        End-of-life semantics match :meth:`write`: the device latches
        read-only on the first unrecoverable failure and the original
        error propagates.
        """
        if self._read_only:
            raise ReadOnlyModeError(
                "device is in end-of-life read-only mode; stored data "
                "remains readable"
            )
        try:
            self.ftl.write_batch(list(lpns), datawords)
        except (OutOfSpaceError, ProgramFailedError):
            self.enter_read_only()
            raise

    def read(self, lpn: int) -> np.ndarray:
        return self.ftl.read(lpn)

    def trim(self, lpn: int) -> None:
        """Discard a logical page (host TRIM; rejected once read-only)."""
        if self._read_only:
            raise ReadOnlyModeError(
                "device is in end-of-life read-only mode and rejects TRIM"
            )
        self.ftl.trim(lpn)

    def scrub(self, max_relocations: int | None = None) -> int:
        """Run one background-scrub pass (no-op once read-only).

        Read-only means the device can no longer secure fresh pages, so
        relocation-based repair would only raise; stored data is served
        as-is from that point.
        """
        if self._read_only:
            return 0
        return self.ftl.scrub(max_relocations=max_relocations)

    def wear_spread(self) -> int:
        """Max minus min per-block erase count (wear-leveling quality)."""
        counts = self.chip.block_erase_counts()
        return max(counts) - min(counts)

    # -- durability: checkpoint / restore ------------------------------------

    #: Bumped whenever the checkpoint state layout changes incompatibly.
    CHECKPOINT_FORMAT = 1

    def checkpoint(self) -> dict:
        """Capture the complete device state as one picklable dict.

        Composes the chip snapshot (page bits, wear, RNG stream position),
        the FTL snapshot (mapping, allocator, wear-leveling cadence, stats),
        the fault injector (when attached), and the end-of-life latch.  A
        device restored from this state continues **bit-identically**: the
        same writes produce the same chip image, GC decisions, and faults
        as an uninterrupted run.

        Must be taken between host operations (the serving layer takes it
        on its single device thread, the simulator between writes).
        """
        geometry = self.geometry
        return {
            "format": self.CHECKPOINT_FORMAT,
            "scheme": self.scheme_name,
            "geometry": {
                "blocks": geometry.blocks,
                "pages_per_block": geometry.pages_per_block,
                "page_bits": geometry.page_bits,
                "erase_limit": geometry.erase_limit,
                "cell_kind": geometry.cell.kind,
            },
            "logical_pages": self.logical_pages,
            "read_only": self._read_only,
            "chip": self.chip.snapshot_state(),
            "ftl": self.ftl.snapshot_state(),
            "faults": (
                self.faults.snapshot_state() if self.faults is not None
                else None
            ),
        }

    def restore(self, state: dict) -> None:
        """Overwrite this device with a previously captured checkpoint.

        The device must have been constructed with the same scheme and
        geometry the checkpoint was taken from — restore replaces *state*,
        not configuration.
        """
        if state.get("format") != self.CHECKPOINT_FORMAT:
            raise ConfigurationError(
                f"checkpoint format {state.get('format')!r} is not supported "
                f"(this build reads format {self.CHECKPOINT_FORMAT})"
            )
        if state["scheme"] != self.scheme_name:
            raise ConfigurationError(
                f"checkpoint was taken from a {state['scheme']!r} device, "
                f"cannot restore into {self.scheme_name!r}"
            )
        geometry = self.geometry
        expected = {
            "blocks": geometry.blocks,
            "pages_per_block": geometry.pages_per_block,
            "page_bits": geometry.page_bits,
            "erase_limit": geometry.erase_limit,
            "cell_kind": geometry.cell.kind,
        }
        if state["geometry"] != expected:
            raise ConfigurationError(
                f"checkpoint geometry {state['geometry']} does not match the "
                f"device geometry {expected}"
            )
        if state["logical_pages"] != self.logical_pages:
            raise ConfigurationError(
                f"checkpoint addresses {state['logical_pages']} logical "
                f"pages, device exposes {self.logical_pages}"
            )
        if (state["faults"] is not None) != (self.faults is not None):
            raise ConfigurationError(
                "checkpoint and device disagree on fault injection; "
                "construct the device with the same fault profile/schedule"
            )
        self.chip.restore_state(state["chip"])
        self.ftl.restore_state(state["ftl"])
        if self.faults is not None:
            self.faults.restore_state(state["faults"])
        self._read_only = bool(state["read_only"])
