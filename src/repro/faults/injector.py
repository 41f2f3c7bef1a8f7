"""Seeded, deterministic fault injection for :class:`~repro.flash.chip.FlashChip`.

The injector sits inside the chip's program/read/erase paths and models the
failure processes configured by a :class:`~repro.faults.profile.FaultProfile`
plus any scripted :class:`~repro.faults.profile.FaultSchedule` events:

* **program failures** — transient (retry may succeed) and permanent (the
  page becomes a grown defect), surfaced as
  :class:`~repro.errors.ProgramFailedError`;
* **stuck-at cells** — manufacture-time, wear-onset (per erase past an
  onset), and scripted.  Stuck bits are enforced via *program-verify*: a
  program whose data conflicts with a stuck bit fails permanently before
  any charge moves, so committed pages are always self-consistent and the
  FTL learns about sticking at write time, exactly like real controllers;
* **read disturb** — every read perturbs one random other page of the same
  block; the perturbation accumulates until erase/reprogram;
* **retention decay** — programmed pages accumulate bit flips with "time"
  (total chip operations), cleared by reprogram or erase.

Disturb and decay overlay *noisy* (host-path) reads only; ``noisy=False``
reads model the controller's deep soft-sensing and return the committed
bits, which is what lets scrubbing repair degraded pages.

All randomness flows from one seeded generator, so identical op sequences
produce identical faults — simulations stay bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ProgramFailedError
from repro.faults.profile import FaultProfile, FaultSchedule, ScheduledFault

__all__ = ["FaultInjector", "FaultCounters"]

PageKey = tuple[int, int]  # (block index, page index)


@dataclass
class FaultCounters:
    """Injection-side accounting (what was injected, not how the FTL coped)."""

    transient_program_failures: int = 0
    permanent_program_failures: int = 0
    stuck_program_failures: int = 0
    disturb_events: int = 0
    retention_events: int = 0
    scheduled_faults_fired: int = 0

    def summary(self) -> dict[str, int]:
        """Flat dict of all counters, for printing or logging."""
        return dict(self.__dict__)


class FaultInjector:
    """Pluggable fault source for one flash chip.

    Parameters
    ----------
    profile:
        Statistical fault rates; defaults to an all-zero (inactive) profile.
    schedule:
        Optional scripted fault campaign.
    seed:
        Seed for the injector's private random stream.
    """

    def __init__(
        self,
        profile: FaultProfile | None = None,
        schedule: FaultSchedule | None = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile or FaultProfile()
        self.schedule = schedule or FaultSchedule()
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.counters = FaultCounters()
        self._geometry = None
        self._op_tick = 0
        self._fired: set[int] = set()
        self._bad_blocks: set[int] = set()
        self._bad_pages: set[PageKey] = set()
        self._stuck_mask: dict[PageKey, np.ndarray] = {}
        self._stuck_vals: dict[PageKey, np.ndarray] = {}
        self._flip_mask: dict[PageKey, np.ndarray] = {}
        self._programmed_tick: dict[PageKey, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def bind(self, geometry) -> None:
        """Attach to a chip's geometry; draws manufacture-time defects.

        Called by :class:`~repro.flash.chip.FlashChip` on construction.  An
        injector serves exactly one chip: rebinding raises, because its
        fault state (stuck maps, disturb accumulation) is chip-specific.
        """
        if self._geometry is not None:
            if self._geometry is geometry:
                return
            raise ConfigurationError(
                "FaultInjector is already bound to a chip; build one "
                "injector per chip"
            )
        self._geometry = geometry
        fraction = self.profile.manufacture_stuck_fraction
        if fraction > 0:
            for block in range(geometry.blocks):
                for page in range(geometry.pages_per_block):
                    mask = self.rng.random(geometry.page_bits) < fraction
                    if mask.any():
                        values = self.rng.integers(
                            0, 2, geometry.page_bits, dtype=np.uint8
                        )
                        self._add_stuck(block, page, mask, values)

    def _require_bound(self) -> None:
        if self._geometry is None:
            raise ConfigurationError(
                "FaultInjector is not attached to a chip yet"
            )

    # -- durability hooks ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable capture of all mutable injector state.

        The RNG stream position, accumulated damage (stuck maps, disturb/
        decay flip masks), grown defects, fired schedule events, and the
        operation clock — everything needed for a restored chip to draw the
        *same* future faults an uninterrupted run would have drawn.
        """
        return {
            "rng": self.rng.bit_generator.state,
            "counters": dict(self.counters.__dict__),
            "op_tick": self._op_tick,
            "fired": sorted(self._fired),
            "bad_blocks": sorted(self._bad_blocks),
            "bad_pages": sorted(self._bad_pages),
            "stuck_mask": {
                key: mask.copy() for key, mask in self._stuck_mask.items()
            },
            "stuck_vals": {
                key: vals.copy() for key, vals in self._stuck_vals.items()
            },
            "flip_mask": {
                key: mask.copy() for key, mask in self._flip_mask.items()
            },
            "programmed_tick": dict(self._programmed_tick),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the injector with a previously captured snapshot."""
        self._require_bound()
        self.rng.bit_generator.state = state["rng"]
        self.counters = FaultCounters(**state["counters"])
        self._op_tick = int(state["op_tick"])
        self._fired = set(state["fired"])
        self._bad_blocks = set(state["bad_blocks"])
        self._bad_pages = {tuple(key) for key in state["bad_pages"]}
        self._stuck_mask = {
            tuple(key): mask.copy() for key, mask in state["stuck_mask"].items()
        }
        self._stuck_vals = {
            tuple(key): vals.copy() for key, vals in state["stuck_vals"].items()
        }
        self._flip_mask = {
            tuple(key): mask.copy() for key, mask in state["flip_mask"].items()
        }
        self._programmed_tick = {
            tuple(key): tick
            for key, tick in state["programmed_tick"].items()
        }

    # -- stuck-cell bookkeeping ----------------------------------------------

    def _add_stuck(
        self, block: int, page: int, mask: np.ndarray, values: np.ndarray
    ) -> None:
        key = (block, page)
        if key in self._stuck_mask:
            # First stick wins: already-stuck positions keep their value.
            new_only = mask & ~self._stuck_mask[key]
            self._stuck_vals[key][new_only] = values[new_only]
            self._stuck_mask[key] |= mask
        else:
            self._stuck_mask[key] = mask.copy()
            vals = np.zeros(len(mask), dtype=np.uint8)
            vals[mask] = values[mask]
            self._stuck_vals[key] = vals

    def stuck_bits(self, block: int | None = None) -> int:
        """Number of stuck bit positions (on one block, or chip-wide)."""
        return int(
            sum(
                mask.sum()
                for (b, _), mask in self._stuck_mask.items()
                if block is None or b == block
            )
        )

    def is_bad(self, block: int, page: int | None = None) -> bool:
        """True when the block (or specific page) refuses all programs."""
        if block in self._bad_blocks:
            return True
        return page is not None and (block, page) in self._bad_pages

    # -- scheduled events ----------------------------------------------------

    def _apply_event(self, index: int, event: ScheduledFault) -> None:
        self._fired.add(index)
        self.counters.scheduled_faults_fired += 1
        if event.kind == "kill_block":
            self._bad_blocks.add(event.block)
        elif event.kind == "kill_page":
            self._bad_pages.add((event.block, event.page))
        else:  # stick_bits
            geometry = self._geometry
            pages = (
                [event.page]
                if event.page is not None
                else range(geometry.pages_per_block)
            )
            for page in pages:
                mask = self.rng.random(geometry.page_bits) < event.stuck_fraction
                values = self.rng.integers(
                    0, 2, geometry.page_bits, dtype=np.uint8
                )
                self._add_stuck(event.block, page, mask, values)

    def _fire_op_events(self) -> None:
        for index, event in enumerate(self.schedule):
            if index in self._fired or event.after_op is None:
                continue
            if self._op_tick >= event.after_op:
                self._apply_event(index, event)

    def _fire_erase_events(self, block: int, erase_count: int) -> None:
        for index, event in enumerate(self.schedule):
            if index in self._fired or event.at_erase is None:
                continue
            if event.block == block and erase_count >= event.at_erase:
                self._apply_event(index, event)

    # -- chip hooks ----------------------------------------------------------

    def on_program(
        self, block: int, page: int, target: np.ndarray, erase_count: int
    ) -> None:
        """Called by the chip before committing a program; may raise.

        Raises :class:`~repro.errors.ProgramFailedError` *before* any bits
        move, so a failed program never corrupts the page's prior contents.
        """
        self._require_bound()
        self._op_tick += 1
        self._fire_op_events()
        key = (block, page)
        if block in self._bad_blocks or key in self._bad_pages:
            raise ProgramFailedError(
                f"program to grown-bad page ({block}, {page}) failed",
                block=block,
                page=page,
                permanent=True,
            )
        profile = self.profile
        if (
            profile.permanent_program_failure_rate > 0
            and self.rng.random() < profile.permanent_program_failure_rate
        ):
            self._bad_pages.add(key)
            self.counters.permanent_program_failures += 1
            raise ProgramFailedError(
                f"page ({block}, {page}) grew a permanent defect during "
                "program",
                block=block,
                page=page,
                permanent=True,
            )
        if (
            profile.transient_program_failure_rate > 0
            and self.rng.random() < profile.transient_program_failure_rate
        ):
            self.counters.transient_program_failures += 1
            raise ProgramFailedError(
                f"transient program failure at ({block}, {page})",
                block=block,
                page=page,
                permanent=False,
            )
        mask = self._stuck_mask.get(key)
        if mask is not None and target.shape == mask.shape:
            conflict = mask & (
                np.asarray(target, dtype=np.uint8) != self._stuck_vals[key]
            )
            if conflict.any():
                self.counters.stuck_program_failures += 1
                raise ProgramFailedError(
                    f"program-verify failed at ({block}, {page}): "
                    f"{int(conflict.sum())} stuck bit(s) conflict with the "
                    "data",
                    block=block,
                    page=page,
                    permanent=True,
                )
        # Program succeeds: fresh charge clears accumulated disturb/decay.
        self._flip_mask.pop(key, None)
        self._programmed_tick[key] = self._op_tick

    def on_read(
        self,
        block: int,
        page: int,
        bits: np.ndarray,
        erase_count: int,
        noisy: bool,
    ) -> np.ndarray:
        """Called by the chip on every page read; returns the observed bits."""
        self._require_bound()
        self._op_tick += 1
        self._fire_op_events()
        key = (block, page)
        out = bits
        mask = self._stuck_mask.get(key)
        if mask is not None:
            out = out.copy()
            out[mask] = self._stuck_vals[key][mask]
        profile = self.profile
        if profile.read_disturb_rate > 0:
            self._accumulate_disturb(block, page)
        if not noisy:
            return out
        if profile.retention_rate > 0:
            self._accumulate_decay(key)
        flips = self._flip_mask.get(key)
        if flips is not None:
            out = out ^ flips
        return out

    def on_erase(self, block: int, erase_count: int) -> None:
        """Called by the chip after a successful block erase."""
        self._require_bound()
        self._op_tick += 1
        self._fire_op_events()
        geometry = self._geometry
        for page in range(geometry.pages_per_block):
            key = (block, page)
            self._flip_mask.pop(key, None)
            self._programmed_tick.pop(key, None)
        self._fire_erase_events(block, erase_count)
        profile = self.profile
        if profile.wear_stuck_rate > 0 and erase_count >= profile.wear_stuck_onset:
            for page in range(geometry.pages_per_block):
                mask = self.rng.random(geometry.page_bits) < profile.wear_stuck_rate
                if mask.any():
                    values = self.rng.integers(
                        0, 2, geometry.page_bits, dtype=np.uint8
                    )
                    self._add_stuck(block, page, mask, values)

    # -- accumulation internals ----------------------------------------------

    def _accumulate_disturb(self, block: int, page: int) -> None:
        """One read disturbs one random *other* page of the same block."""
        pages_per_block = self._geometry.pages_per_block
        if pages_per_block < 2:
            return
        victim = int(self.rng.integers(0, pages_per_block - 1))
        if victim >= page:
            victim += 1
        flips = (
            self.rng.random(self._geometry.page_bits)
            < self.profile.read_disturb_rate
        )
        if flips.any():
            self.counters.disturb_events += 1
            self._xor_into((block, victim), flips)

    def _accumulate_decay(self, key: PageKey) -> None:
        """Charge leakage proportional to ops elapsed since last program."""
        since = self._programmed_tick.get(key)
        if since is None:
            return
        elapsed = self._op_tick - since
        if elapsed <= 0:
            return
        rate = min(self.profile.retention_rate * elapsed, 0.5)
        flips = self.rng.random(self._geometry.page_bits) < rate
        # Advance the decay clock whether or not any bit flipped, so decay
        # accrues incrementally instead of compounding on every read.
        self._programmed_tick[key] = self._op_tick
        if flips.any():
            self.counters.retention_events += 1
            self._xor_into(key, flips)

    def _xor_into(self, key: PageKey, flips: np.ndarray) -> None:
        mask = self._flip_mask.get(key)
        if mask is None:
            self._flip_mask[key] = flips.astype(np.uint8)
        else:
            mask ^= flips.astype(np.uint8)
