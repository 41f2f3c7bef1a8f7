"""A whole flash chip: blocks of pages, plus operation accounting."""

from __future__ import annotations

import numpy as np

from repro.errors import LogicalAddressError, ProgramFailedError
from repro.flash.block import Block
from repro.flash.geometry import FlashGeometry
from repro.flash.noise import WearNoiseModel
from repro.flash.stats import FlashStats

__all__ = ["FlashChip"]


class FlashChip:
    """A flash chip exposing the interface real chips give the FTL.

    Operations are addressed by ``(block_index, page_index)``.  The chip
    enforces every physical constraint through its blocks/wordlines/pages
    and records operation counts in :attr:`stats`.

    Parameters
    ----------
    geometry:
        Chip organization; defaults to a small MLC chip.
    noise_model:
        Optional :class:`~repro.flash.noise.WearNoiseModel`.  When set,
        *normal* page reads return wear-appropriately corrupted copies;
        callers that model the controller's high-precision internal sensing
        (e.g. the FTL's read-modify-write path) pass ``noisy=False``.
    noise_seed:
        Seed for the noise stream (reads stay reproducible).
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector`.  When set,
        programs can fail (:class:`~repro.errors.ProgramFailedError`),
        stuck cells are enforced by program-verify, and reads accumulate
        disturb/retention damage per the injector's profile.
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        noise_model: WearNoiseModel | None = None,
        noise_seed: int = 0,
        fault_injector=None,
    ) -> None:
        self.geometry = geometry or FlashGeometry()
        self.noise_model = noise_model
        self.faults = fault_injector
        if self.faults is not None:
            self.faults.bind(self.geometry)
        self._noise_rng = np.random.default_rng(noise_seed)
        self.blocks: list[Block] = [
            Block(
                cell=self.geometry.cell,
                pages_per_block=self.geometry.pages_per_block,
                page_bits=self.geometry.page_bits,
                erase_limit=self.geometry.erase_limit,
                max_partial_programs=self.geometry.max_partial_programs,
            )
            for _ in range(self.geometry.blocks)
        ]
        self.stats = FlashStats()

    def _block(self, block_index: int) -> Block:
        if not 0 <= block_index < len(self.blocks):
            raise LogicalAddressError(
                f"chip has {len(self.blocks)} blocks, no block {block_index}"
            )
        return self.blocks[block_index]

    def _check_page(self, block: Block, page_index: int) -> None:
        if not 0 <= page_index < block.pages_per_block:
            raise LogicalAddressError(
                f"blocks have {block.pages_per_block} pages, no page {page_index}"
            )

    def read_page(
        self, block_index: int, page_index: int, *, noisy: bool = True
    ) -> np.ndarray:
        """Read the bits of one physical page.

        With a noise model attached, ``noisy=True`` (the default) injects
        wear-dependent bit errors; ``noisy=False`` models the controller's
        precise internal sensing and always returns the true bits.
        """
        block = self._block(block_index)
        self._check_page(block, page_index)
        self.stats.record_read()
        bits = block.read_page(page_index)
        if self.faults is not None:
            bits = self.faults.on_read(
                block_index, page_index, bits, block.erase_count, noisy=noisy
            )
        if self.noise_model is not None and noisy:
            bits = self.noise_model.corrupt(
                bits, block.erase_count, self._noise_rng
            )
        return bits

    def program_page(
        self, block_index: int, page_index: int, new_bits: np.ndarray
    ) -> None:
        """Program one physical page (program-without-erase permitted).

        With a fault injector attached, the program may raise
        :class:`~repro.errors.ProgramFailedError` *before* any bits are
        committed — the chip-status-register failure real FTLs handle.
        """
        block = self._block(block_index)
        self._check_page(block, page_index)
        if self.faults is not None:
            try:
                self.faults.on_program(
                    block_index, page_index, new_bits, block.erase_count
                )
            except ProgramFailedError:
                self.stats.record_program_failure()
                raise
        bits = block.pages[page_index].bits
        before = np.count_nonzero(bits)
        block.program_page(page_index, new_bits)
        self.stats.record_program(np.count_nonzero(bits) - before)

    def erase_block(self, block_index: int) -> None:
        """Erase one block, consuming a program/erase cycle."""
        block = self._block(block_index)
        block.erase()
        self.stats.record_erase(block_index)
        if self.faults is not None:
            self.faults.on_erase(block_index, block.erase_count)

    def block_erase_counts(self) -> list[int]:
        """Per-block erase counts (wear profile of the chip)."""
        return [block.erase_count for block in self.blocks]

    # -- durability hooks ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable capture of the full chip state.

        Everything a restart needs to continue bit-identically: every
        page's bits and partial-program count, every block's erase count,
        the noise RNG stream position, and the operation counters.  The
        fault injector is chip-external state and is snapshotted by its
        owner (:meth:`repro.ssd.device.SSD.checkpoint`).
        """
        return {
            "blocks": [
                {
                    "erase_count": block.erase_count,
                    "pages": [page.snapshot_state() for page in block.pages],
                }
                for block in self.blocks
            ],
            "noise_rng": self._noise_rng.bit_generator.state,
            "stats": {
                "page_reads": self.stats.page_reads,
                "page_programs": self.stats.page_programs,
                "program_failures": self.stats.program_failures,
                "block_erases": self.stats.block_erases,
                "bits_programmed": self.stats.bits_programmed,
                "erases_per_block": dict(self.stats.erases_per_block),
            },
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the chip with a previously captured snapshot."""
        if len(state["blocks"]) != len(self.blocks):
            raise LogicalAddressError(
                f"snapshot holds {len(state['blocks'])} blocks, chip has "
                f"{len(self.blocks)}"
            )
        for block, block_state in zip(self.blocks, state["blocks"]):
            if len(block_state["pages"]) != block.pages_per_block:
                raise LogicalAddressError(
                    "snapshot block page count does not match the chip "
                    "geometry"
                )
            block.erase_count = int(block_state["erase_count"])
            for page, page_state in zip(block.pages, block_state["pages"]):
                page.restore_state(page_state)
        self._noise_rng.bit_generator.state = state["noise_rng"]
        stats = state["stats"]
        self.stats = FlashStats(
            page_reads=stats["page_reads"],
            page_programs=stats["page_programs"],
            program_failures=stats["program_failures"],
            block_erases=stats["block_erases"],
            bits_programmed=stats["bits_programmed"],
            erases_per_block=dict(stats["erases_per_block"]),
        )

    @property
    def live_blocks(self) -> int:
        """Number of blocks still within their erase budget."""
        return sum(1 for block in self.blocks if not block.worn_out)
