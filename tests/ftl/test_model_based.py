"""Model-based fuzzing of the FTL against a reference dict semantics.

Random interleavings of writes, trims and reads must behave exactly like a
dictionary from logical page to last-written data, regardless of GC,
migrations, relocations, NOP limits or program failures happening
underneath.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_scheme
from repro.errors import OutOfSpaceError, ProgramFailedError
from repro.faults import FaultInjector, FaultProfile
from repro.flash import FlashChip, FlashGeometry, SLC
from repro.ftl import BasicFTL, RewritingFTL, StaticWearLeveling


def reference_check(ftl, model: dict[int, np.ndarray], lpns) -> None:
    for lpn in lpns:
        expected = model.get(lpn)
        actual = ftl.read(lpn)
        if expected is None:
            assert actual.sum() == 0, f"lpn {lpn} should read as zeros"
        else:
            assert np.array_equal(actual, expected), f"lpn {lpn} mismatch"


class TestBasicFtlModel:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_ops_match_dict_semantics(self, seed: int) -> None:
        chip = FlashChip(
            FlashGeometry(blocks=5, pages_per_block=4, page_bits=16,
                          erase_limit=10_000, cell=SLC)
        )
        ftl = BasicFTL(chip, logical_pages=10,
                       wear_leveling=StaticWearLeveling(threshold=6),
                       wl_check_interval=7)
        rng = np.random.default_rng(seed)
        model: dict[int, np.ndarray] = {}
        for _ in range(120):
            op = rng.random()
            lpn = int(rng.integers(0, 10))
            if op < 0.6:
                data = rng.integers(0, 2, 16, dtype=np.uint8)
                ftl.write(lpn, data)
                model[lpn] = data
            elif op < 0.75:
                ftl.trim(lpn)
                model.pop(lpn, None)
            else:
                reference_check(ftl, model, [lpn])
        reference_check(ftl, model, range(10))


class TestRewritingFtlModel:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_ops_match_dict_semantics(self, seed: int) -> None:
        chip = FlashChip(
            FlashGeometry(blocks=5, pages_per_block=4, page_bits=96,
                          erase_limit=10_000, max_partial_programs=5)
        )
        scheme = make_scheme("wom", 96)
        ftl = RewritingFTL(chip, scheme, logical_pages=8)
        rng = np.random.default_rng(seed)
        model: dict[int, np.ndarray] = {}
        for _ in range(80):
            op = rng.random()
            lpn = int(rng.integers(0, 8))
            if op < 0.65:
                data = rng.integers(0, 2, ftl.dataword_bits, dtype=np.uint8)
                ftl.write(lpn, data)
                model[lpn] = data
            elif op < 0.8:
                ftl.trim(lpn)
                model.pop(lpn, None)
            else:
                reference_check(ftl, model, [lpn])
        reference_check(ftl, model, range(8))


class TestRewritingFtlBatchModel:
    """``write_batch`` on a small device whose GC runs *inside* batches.

    28 physical pages behind 20 logical ones: a relocating lane regularly
    triggers GC while later lanes of the same batch are still waiting, the
    interleaving on which an encode computed ahead of time goes stale.
    With ``faults``, programs fail transiently and permanently as well: a
    write that raises leaves its page as it was, and the lanes of a batch
    before the failing one stay written.
    """

    LOGICAL = 20

    @pytest.mark.parametrize(
        "faults",
        [None, FaultProfile(transient_program_failure_rate=0.2,
                            permanent_program_failure_rate=0.002)],
        ids=["clean", "faults"],
    )
    @pytest.mark.parametrize(
        "scheme_name,kwargs",
        [("wom", {}), ("mfc-1/2-1bpc", {"constraint_length": 4})],
    )
    @given(seed=st.integers(0, 10_000), max_batch=st.integers(2, 16))
    @settings(max_examples=10, deadline=None)
    def test_batches_under_gc_match_dict_semantics(
        self, scheme_name: str, kwargs: dict, faults: FaultProfile | None,
        seed: int, max_batch: int,
    ) -> None:
        chip = FlashChip(
            FlashGeometry(blocks=8, pages_per_block=4, page_bits=192,
                          erase_limit=10_000),
            fault_injector=(
                None if faults is None
                else FaultInjector(profile=faults, seed=seed)
            ),
        )
        scheme = make_scheme(scheme_name, 192, **kwargs)
        ftl = RewritingFTL(chip, scheme, logical_pages=self.LOGICAL)
        bits = ftl.dataword_bits
        rng = np.random.default_rng(seed)
        model: dict[int, np.ndarray] = {}
        ops = 0  # 150, then on until GC has run: small batches fill slowly
        while ops < 150 or (ftl.stats.gc_runs == 0 and ops < 1500):
            ops += 1
            op = rng.random()
            lpn = int(rng.integers(0, self.LOGICAL))
            if op < 0.8:
                if op < 0.7:
                    lanes = int(rng.integers(2, max_batch + 1))
                    lpns = [
                        int(x) for x in rng.integers(0, self.LOGICAL, lanes)
                    ]
                else:
                    lpns = [lpn]
                words = rng.integers(0, 2, (len(lpns), bits), dtype=np.uint8)
                before = ftl.stats.host_writes
                try:
                    if op < 0.7:
                        ftl.write_batch(lpns, words)  # repeated LPNs: last wins
                    else:
                        ftl.write(lpn, words[0])
                except (ProgramFailedError, OutOfSpaceError):
                    assert faults is not None
                    # Each lane counts one host write once it is in place,
                    # so the count says which prefix of the batch took
                    # effect; the failing lane and those after it did not.
                    accepted = ftl.stats.host_writes - before
                    assert accepted < len(lpns)
                    model.update(zip(lpns[:accepted], words[:accepted]))
                else:
                    assert ftl.stats.host_writes - before == len(lpns)
                    model.update(zip(lpns, words))
            elif op < 0.9:
                ftl.trim(lpn)
                model.pop(lpn, None)
            reference_check(ftl, model, range(self.LOGICAL))
            assert len(ftl.mapping._forward) == len(model)
        assert ftl.stats.gc_runs > 0


class TestModelUntilDeath:
    def test_semantics_hold_until_out_of_space(self) -> None:
        """Even while dying, every accepted write is readable."""
        chip = FlashChip(
            FlashGeometry(blocks=4, pages_per_block=4, page_bits=16,
                          erase_limit=5, cell=SLC)
        )
        ftl = BasicFTL(chip, logical_pages=6)
        rng = np.random.default_rng(0)
        model: dict[int, np.ndarray] = {}
        with pytest.raises(OutOfSpaceError):
            for _ in range(100_000):
                lpn = int(rng.integers(0, 6))
                data = rng.integers(0, 2, 16, dtype=np.uint8)
                ftl.write(lpn, data)
                model[lpn] = data
        reference_check(ftl, model, range(6))
