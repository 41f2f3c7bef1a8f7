"""Tests for the scheme layer (baselines, WOM, waterfall, MFC, factory)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MFC_VARIANTS,
    MfcScheme,
    RedundancyScheme,
    UncodedScheme,
    WaterfallScheme,
    WomScheme,
    available_schemes,
    make_scheme,
)
from repro.errors import CodingError, ConfigurationError, UnwritableError

PAGE = 768


class TestUncoded:
    def test_rate_one(self) -> None:
        scheme = UncodedScheme(PAGE)
        assert scheme.rate == 1.0

    def test_single_write_then_erase(self) -> None:
        scheme = UncodedScheme(64)
        rng = np.random.default_rng(0)
        state = scheme.fresh_state()
        data = rng.integers(0, 2, 64, dtype=np.uint8)
        state = scheme.write(state, data)
        assert np.array_equal(scheme.read(state), data)
        with pytest.raises(UnwritableError):
            scheme.write(state, rng.integers(0, 2, 64, dtype=np.uint8))

    def test_covering_rewrite_is_allowed(self) -> None:
        # PWE genuinely allows a rewrite that only sets bits.
        scheme = UncodedScheme(4)
        state = scheme.write(scheme.fresh_state(), np.array([1, 0, 0, 0], np.uint8))
        state = scheme.write(state, np.array([1, 1, 0, 0], np.uint8))
        assert scheme.read(state).tolist() == [1, 1, 0, 0]

    def test_wrong_size(self) -> None:
        scheme = UncodedScheme(8)
        with pytest.raises(CodingError):
            scheme.write(scheme.fresh_state(), np.zeros(9, np.uint8))


class TestRedundancy:
    def test_rate_and_name(self) -> None:
        scheme = RedundancyScheme(PAGE, copies=3)
        assert scheme.rate == pytest.approx(1 / 3)
        assert scheme.name == "Redundancy-1/3"

    def test_k_writes_then_erase(self) -> None:
        scheme = RedundancyScheme(16, copies=3)
        rng = np.random.default_rng(1)
        state = scheme.fresh_state()
        last = None
        for _ in range(3):
            data = rng.integers(0, 2, 16, dtype=np.uint8)
            state = scheme.write(state, data)
            last = data
            assert np.array_equal(scheme.read(state), last)
        with pytest.raises(UnwritableError):
            scheme.write(state, rng.integers(0, 2, 16, dtype=np.uint8))

    def test_read_of_erased_state_is_zero(self) -> None:
        scheme = RedundancyScheme(16, copies=2)
        assert scheme.read(scheme.fresh_state()).sum() == 0

    def test_zero_copies_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            RedundancyScheme(16, copies=0)

    def test_write_does_not_mutate_old_state(self) -> None:
        scheme = RedundancyScheme(8, copies=2)
        state = scheme.fresh_state()
        new_state = scheme.write(state, np.ones(8, np.uint8))
        assert state.sum() == 0
        assert new_state.tolist() == [1] * 8 + [0] * 8  # copy 0 now in use
        newer = scheme.write(new_state, np.array([0, 1] * 4, np.uint8))
        assert new_state.tolist() == [1] * 8 + [0] * 8
        assert newer.tolist() == [1] * 8 + [0, 1] * 4

    def test_zero_dataword_only_onto_an_erased_page(self) -> None:
        """An all-zero dataword looks like an unused copy: onto an erased
        page it programs nothing and reads back as zeros, onto a used copy it
        needs an erase, in both faces."""
        scheme = RedundancyScheme(8, copies=3)
        zeros = np.zeros(8, np.uint8)
        erased = scheme.fresh_state()
        assert np.array_equal(scheme.write(erased, zeros), erased)
        assert scheme.read(scheme.write(erased, zeros)).tolist() == [0] * 8
        used = scheme.write(erased, np.ones(8, np.uint8))
        with pytest.raises(UnwritableError):
            scheme.write(used, zeros)
        states, writable = scheme.write_batch(
            np.stack([erased, used]), np.stack([zeros, zeros])
        )
        assert writable.tolist() == [True, False]
        assert np.array_equal(states, np.stack([erased, used]))
        assert scheme.read_batch(states)[0].tolist() == [0] * 8


class TestWomScheme:
    def test_rate_two_thirds(self) -> None:
        assert WomScheme(PAGE).rate == pytest.approx(2 / 3)

    def test_cell_levels_exposed(self) -> None:
        scheme = WomScheme(PAGE)
        levels = scheme.cell_levels(scheme.fresh_state())
        assert levels is not None and (levels == 0).all()


class TestWaterfallScheme:
    def test_rate_one_third(self) -> None:
        assert WaterfallScheme(PAGE).rate == pytest.approx(1 / 3)


class TestMfcScheme:
    @pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
    def test_all_variants_construct_and_roundtrip(self, variant: str) -> None:
        scheme = MfcScheme(variant, page_bits=PAGE, constraint_length=3)
        rng = np.random.default_rng(4)
        state = scheme.fresh_state()
        data = rng.integers(0, 2, scheme.dataword_bits, dtype=np.uint8)
        state = scheme.write(state, data)
        assert np.array_equal(scheme.read(state), data)

    def test_ideal_rates(self) -> None:
        expected = {
            "mfc-1/2-1bpc": 1 / 6,
            "mfc-1/2-2bpc": 1 / 3,
            "mfc-2/3": 2 / 9,
            "mfc-3/4": 1 / 4,
            "mfc-4/5": 4 / 15,
        }
        for variant, rate in expected.items():
            scheme = MfcScheme(variant, page_bits=3000, constraint_length=3)
            assert scheme.ideal_rate == pytest.approx(rate)

    def test_unknown_variant(self) -> None:
        with pytest.raises(ConfigurationError):
            MfcScheme("mfc-9/10", page_bits=PAGE)

    def test_name_uppercased(self) -> None:
        assert MfcScheme("mfc-2/3", PAGE, constraint_length=3).name == "MFC-2/3"


class TestRankModulationScheme:
    def test_factory_and_roundtrip(self) -> None:
        scheme = make_scheme("rank-modulation", 960)
        rng = np.random.default_rng(7)
        state = scheme.fresh_state()
        for _ in range(2):
            data = rng.integers(0, 2, scheme.dataword_bits, dtype=np.uint8)
            state = scheme.write(state, data)
            assert np.array_equal(scheme.read(state), data)

    def test_name_and_rate(self) -> None:
        scheme = make_scheme("rank-modulation", 960)
        assert "RankMod" in scheme.name
        assert 0 < scheme.rate < 0.1  # 4 bits per 4x15 physical bits

    def test_lifetime_between_wom_and_mfc(self) -> None:
        from repro.core import LifetimeSimulator

        result = LifetimeSimulator(
            make_scheme("rank-modulation", 960), seed=1
        ).run(cycles=2)
        assert result.lifetime_gain >= 2


class TestFactory:
    def test_every_advertised_scheme_builds(self) -> None:
        for name in available_schemes():
            scheme = make_scheme(name, page_bits=PAGE, **(
                {"constraint_length": 3} if name.startswith("mfc") else {}
            ))
            assert scheme.dataword_bits > 0

    def test_redundancy_any_k(self) -> None:
        assert make_scheme("redundancy-1/5", 64).rate == pytest.approx(1 / 5)

    def test_unknown_name(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            make_scheme("mystery", 64)

    @pytest.mark.parametrize("name", ["redundancy-1/x", "redundancy-1/"])
    def test_redundancy_k_that_is_no_integer(self, name: str) -> None:
        with pytest.raises(ConfigurationError, match=f"scheme '{name}'"):
            make_scheme(name, 64)

    def test_case_insensitive(self) -> None:
        assert make_scheme("WOM", PAGE).name == "WOM"

    def test_str_is_informative(self) -> None:
        text = str(make_scheme("wom", PAGE))
        assert "WOM" in text and "rate" in text
