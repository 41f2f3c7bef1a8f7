"""Device checkpoint/restore: bit-identical continuation after restore."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultProfile
from repro.flash.geometry import FlashGeometry
from repro.flash.noise import WearNoiseModel
from repro.ssd.device import SSD
from repro.ssd.simulator import run_until_death
from repro.workload import UniformWorkload, payload_for

GEOMETRY = FlashGeometry(
    blocks=12, pages_per_block=8, page_bits=64, erase_limit=200
)

# Wear-driven end of life: bit-sticking only begins late (onset 160 of a
# 200-erase budget) so the device comfortably survives the mid-life
# checkpoint, then dies naturally within a few thousand writes.
PROFILE = FaultProfile(
    transient_program_failure_rate=2e-3,
    permanent_program_failure_rate=2e-5,
    wear_stuck_rate=5e-4,
    wear_stuck_onset=160,
    read_disturb_rate=1e-5,
)


def make_device() -> SSD:
    """A degrading device: noise + faults, so both RNG streams matter."""
    return SSD(
        geometry=GEOMETRY,
        scheme="uncoded",
        utilization=0.6,
        noise_model=WearNoiseModel(floor_ber=1e-5, growth=4.0,
                                   rated_cycles=200),
        noise_seed=7,
        fault_profile=PROFILE,
        fault_seed=11,
    )


def chip_image(ssd: SSD) -> np.ndarray:
    return np.stack([
        np.stack([ssd.chip.read_page(b, p, noisy=False)
                  for p in range(GEOMETRY.pages_per_block)])
        for b in range(GEOMETRY.blocks)
    ])


def drive(ssd: SSD, writes: int, seed: int = 3) -> None:
    workload = UniformWorkload(ssd.logical_pages, seed=seed)
    bits = ssd.logical_page_bits
    for _ in range(writes):
        op = next(workload)
        ssd.write(op.lpn, payload_for(op, bits))


class TestBitIdenticalRestore:
    def test_restored_device_matches_uninterrupted_run(self) -> None:
        """Checkpoint mid-life, then race the original to device death.

        The restored copy must follow the exact same trajectory — same
        chip image, same wear, same fault firings, same lifetime — which
        only holds if the checkpoint captured every RNG stream position.
        """
        reference = make_device()
        drive(reference, 400)
        state = pickle.loads(pickle.dumps(reference.checkpoint()))

        restored = make_device()
        restored.restore(state)
        assert np.array_equal(chip_image(restored), chip_image(reference))

        ref_result = run_until_death(
            reference, UniformWorkload(reference.logical_pages, seed=9),
            max_writes=50_000,
        )
        res_result = run_until_death(
            restored, UniformWorkload(restored.logical_pages, seed=9),
            max_writes=50_000,
        )
        assert res_result.host_writes == ref_result.host_writes
        assert res_result.block_erases == ref_result.block_erases
        assert res_result.program_failures == ref_result.program_failures
        assert res_result.retired_blocks == ref_result.retired_blocks
        assert np.array_equal(chip_image(restored), chip_image(reference))

    def test_reads_identical_after_restore(self) -> None:
        reference = make_device()
        drive(reference, 200)
        restored = make_device()
        restored.restore(reference.checkpoint())
        # Host reads draw from the noise RNG; restored streams must align.
        for lpn in range(reference.logical_pages):
            assert np.array_equal(restored.read(lpn), reference.read(lpn))

    def test_read_only_latch_round_trips(self) -> None:
        ssd = make_device()
        drive(ssd, 50)
        ssd.enter_read_only()
        restored = make_device()
        restored.restore(ssd.checkpoint())
        assert restored.read_only


class TestRestoreRefusals:
    def test_wrong_scheme_refused(self) -> None:
        plain = SSD(geometry=GEOMETRY, scheme="uncoded", utilization=0.8)
        coded = SSD(geometry=GEOMETRY, scheme="mfc-1/2-1bpc",
                    utilization=0.8, constraint_length=4)
        with pytest.raises(ConfigurationError, match="uncoded"):
            coded.restore(plain.checkpoint())

    def test_wrong_geometry_refused(self) -> None:
        small = SSD(geometry=GEOMETRY, scheme="uncoded", utilization=0.8)
        bigger = SSD(
            geometry=FlashGeometry(blocks=16, pages_per_block=8,
                                   page_bits=64, erase_limit=60),
            scheme="uncoded", utilization=0.8,
        )
        with pytest.raises(ConfigurationError, match="geometry"):
            bigger.restore(small.checkpoint())

    def test_fault_config_mismatch_refused(self) -> None:
        faulty = make_device()
        plain = SSD(geometry=GEOMETRY, scheme="uncoded", utilization=0.6)
        with pytest.raises(ConfigurationError, match="fault"):
            plain.restore(faulty.checkpoint())

    def test_unknown_format_refused(self) -> None:
        ssd = SSD(geometry=GEOMETRY, scheme="uncoded", utilization=0.8)
        state = ssd.checkpoint()
        state["format"] = 99
        with pytest.raises(ConfigurationError, match="format"):
            ssd.restore(state)
