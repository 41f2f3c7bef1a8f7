"""Batched FTL writes must be indistinguishable from sequential writes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_scheme
from repro.errors import CodingError, OutOfSpaceError
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import RewritingFTL


def make_ftl(scheme_name="wom", page_bits=96, **scheme_kw):
    chip = FlashChip(
        FlashGeometry(
            blocks=6, pages_per_block=4, page_bits=page_bits, erase_limit=50
        )
    )
    scheme = make_scheme(scheme_name, page_bits, **scheme_kw)
    return RewritingFTL(chip, scheme, logical_pages=8)


def rand_batch(rng, lanes, bits):
    return rng.integers(0, 2, (lanes, bits), dtype=np.uint8)


@pytest.mark.parametrize(
    "scheme_name,kwargs",
    [("wom", {}), ("mfc-1/2-1bpc", {"constraint_length": 4})],
)
class TestWriteBatchEqualsSequential:
    def test_interleaved_histories_converge(self, scheme_name, kwargs) -> None:
        """Same write stream via write() and write_batch(): same device.

        Batches of 8-16 over 8 logical pages, long enough that GC runs
        inside batches: lanes relocate, GC moves their neighbours, and the
        later lanes must still land exactly where sequential writes do.
        """
        sequential = make_ftl(scheme_name, **kwargs)
        batched = make_ftl(scheme_name, **kwargs)
        rng = np.random.default_rng(0)
        bits = sequential.dataword_bits
        for _ in range(60):
            lanes = int(rng.integers(8, 17))
            lpns = [int(lpn) for lpn in rng.integers(0, 8, lanes)]
            words = rand_batch(rng, lanes, bits)
            for lpn, word in zip(lpns, words):
                sequential.write(lpn, word)
            batched.write_batch(lpns, words)
        assert sequential.stats.gc_runs >= 5
        for lpn in range(8):
            assert np.array_equal(sequential.read(lpn), batched.read(lpn))
        assert sequential.stats.summary() == batched.stats.summary()
        assert (
            sequential.chip.block_erase_counts()
            == batched.chip.block_erase_counts()
        )
        assert (
            sequential.chip.snapshot_state()["blocks"]
            == batched.chip.snapshot_state()["blocks"]
        )

    def test_duplicate_lpns_keep_write_order(self, scheme_name, kwargs) -> None:
        """Repeated LPNs in one batch apply in order (last write wins)."""
        ftl = make_ftl(scheme_name, **kwargs)
        rng = np.random.default_rng(1)
        bits = ftl.dataword_bits
        first, second = rand_batch(rng, 2, bits)
        ftl.write_batch([3, 3], np.stack([first, second]))
        assert np.array_equal(ftl.read(3), second)

    def test_batch_exercises_in_place_path(self, scheme_name, kwargs) -> None:
        ftl = make_ftl(scheme_name, **kwargs)
        rng = np.random.default_rng(2)
        bits = ftl.dataword_bits
        lpns = [0, 1, 2, 3]
        ftl.write_batch(lpns, rand_batch(rng, 4, bits))  # maps the pages
        assert ftl.stats.in_place_rewrites == 0
        ftl.write_batch(lpns, rand_batch(rng, 4, bits))  # now all in place
        assert ftl.stats.in_place_rewrites == 4


class TestFailedBatch:
    def test_a_failed_batch_leaves_no_encode_behind(self, monkeypatch) -> None:
        """An encode made ahead for a batch that died must never be used."""
        ftl = make_ftl("wom")
        rng = np.random.default_rng(3)
        bits = ftl.dataword_bits
        first, second = rand_batch(rng, 3, bits), rand_batch(rng, 3, bits)
        ftl.write_batch([0, 1, 2], first)

        def device_full(*_args):
            raise OutOfSpaceError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(ftl.chip, "program_page", device_full)
            with pytest.raises(OutOfSpaceError):
                ftl.write_batch([0, 1, 2], second)  # dies on lane 0
        third = rand_batch(rng, 1, bits)[0]
        ftl.write(2, third)
        assert np.array_equal(ftl.read(2), third)
        assert np.array_equal(ftl.read(1), first[1])


class TestWriteBatchValidation:
    def test_rejects_wrong_width(self) -> None:
        ftl = make_ftl("wom")
        with pytest.raises(CodingError):
            ftl.write_batch([0, 1], np.zeros((2, 5), dtype=np.uint8))

    def test_rejects_mismatched_lane_count(self) -> None:
        ftl = make_ftl("wom")
        with pytest.raises(CodingError):
            ftl.write_batch(
                [0], np.zeros((2, ftl.dataword_bits), dtype=np.uint8)
            )
