"""Tests for the lifetime simulator and its instrumentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BatchLifetimeSimulator, LifetimeSimulator, lifetime, make_scheme
from repro.core.analysis import UpdateTrace
from repro.errors import ConfigurationError

PAGE = 768


class TestBaselines:
    def test_uncoded_lifetime_is_one(self) -> None:
        result = LifetimeSimulator(make_scheme("uncoded", 256), seed=0).run(cycles=4)
        assert result.lifetime_gain == 1.0
        assert result.aggregate_gain == 1.0

    def test_redundancy_lifetime_equals_copies(self) -> None:
        result = LifetimeSimulator(
            make_scheme("redundancy-1/3", 256), seed=0
        ).run(cycles=4)
        assert result.lifetime_gain == 3.0
        assert result.aggregate_gain == pytest.approx(1.0)

    def test_wom_lifetime_is_two_on_large_pages(self) -> None:
        result = LifetimeSimulator(make_scheme("wom", 3072), seed=0).run(cycles=4)
        assert result.lifetime_gain == 2.0
        assert result.aggregate_gain == pytest.approx(4 / 3, rel=0.01)


class TestMfcLifetime:
    def test_mfc_half_1bpc_beats_everything(self) -> None:
        mfc = LifetimeSimulator(
            make_scheme("mfc-1/2-1bpc", PAGE), seed=0
        ).run(cycles=3)
        wom = LifetimeSimulator(make_scheme("wom", PAGE), seed=0).run(cycles=3)
        assert mfc.lifetime_gain > 4 * wom.lifetime_gain
        assert mfc.aggregate_gain > 1.5

    def test_deterministic_given_seed(self) -> None:
        scheme = make_scheme("mfc-2/3", PAGE, constraint_length=4)
        a = LifetimeSimulator(scheme, seed=9).run(cycles=2)
        b = LifetimeSimulator(scheme, seed=9).run(cycles=2)
        assert a.writes_per_cycle == b.writes_per_cycle

    def test_verified_reads_over_whole_life(self) -> None:
        """End-to-end data integrity for every write of every cycle."""
        scheme = make_scheme("mfc-3/4", PAGE, constraint_length=3)
        LifetimeSimulator(scheme, seed=1, verify_reads=True).run(cycles=2)


class TestResultStructure:
    def test_writes_per_cycle_length(self) -> None:
        result = LifetimeSimulator(make_scheme("wom", PAGE), seed=0).run(cycles=5)
        assert len(result.writes_per_cycle) == 5

    def test_std_zero_for_deterministic_schemes(self) -> None:
        result = LifetimeSimulator(
            make_scheme("redundancy-1/2", 64), seed=0
        ).run(cycles=3)
        assert result.lifetime_std == 0.0

    def test_needs_at_least_one_cycle(self) -> None:
        with pytest.raises(ConfigurationError):
            LifetimeSimulator(make_scheme("wom", PAGE)).run(cycles=0)

    def test_runaway_guard(self) -> None:
        with pytest.raises(ConfigurationError, match="max_writes_per_cycle"):
            LifetimeSimulator(make_scheme("wom", PAGE), seed=0).run(
                cycles=1, max_writes_per_cycle=1
            )

    def test_str(self) -> None:
        result = LifetimeSimulator(make_scheme("wom", PAGE), seed=0).run(cycles=1)
        assert "WOM" in str(result)


class TestInstrumentation:
    def test_wom_increment_fraction_near_three_quarters(self) -> None:
        # Fig. 15: WOM increments ~75% of v-cells per update.
        result = LifetimeSimulator(make_scheme("wom", 3072), seed=0).run(cycles=5)
        assert 0.6 < result.trace.mean_increment_fraction() < 0.9

    def test_mfc_increment_fraction_small(self) -> None:
        # Fig. 15: MFC-1/2-1BPC increments ~17% of v-cells per update.
        result = LifetimeSimulator(
            make_scheme("mfc-1/2-1bpc", 3072), seed=0
        ).run(cycles=2)
        assert result.trace.mean_increment_fraction() < 0.3

    def test_mfc_levels_mostly_high_at_erase(self) -> None:
        # Fig. 16: the vast majority of cells reach L2/L3 before erase.
        result = LifetimeSimulator(
            make_scheme("mfc-1/2-1bpc", 3072), seed=0
        ).run(cycles=2)
        hist = result.trace.level_histogram()
        assert hist[2] + hist[3] > 0.6
        assert hist[0] < 0.1

    def test_uncoded_has_no_cell_trace(self) -> None:
        result = LifetimeSimulator(make_scheme("uncoded", 64), seed=0).run(cycles=2)
        assert not result.trace.has_data


class TestCrossValidation:
    def test_waterfall_lifetime_matches_direct_model(self) -> None:
        """Validate the whole simulator against an independent model.

        For plain waterfall coding each cell flips with probability 1/2 per
        update and dies on its 4th flip; the page dies when any cell dies.
        That process can be simulated directly on flip counters, bypassing
        all coding/vcell machinery — both estimates must agree.
        """
        num_cells, cycles = 1000, 30
        rng = np.random.default_rng(42)
        direct = []
        for _ in range(cycles):
            flips = np.zeros(num_cells, dtype=np.int64)
            writes = 0
            while True:
                flips += rng.integers(0, 2, num_cells)
                if flips.max() > 3:
                    break
                writes += 1
            direct.append(writes)
        direct_mean = float(np.mean(direct))

        scheme = make_scheme("waterfall", num_cells * 3)
        simulated = LifetimeSimulator(scheme, seed=7).run(cycles=cycles)
        assert simulated.lifetime_gain == pytest.approx(direct_mean, abs=0.6)


class TestDefectInjection:
    def test_mfc_routes_around_stuck_cells(self) -> None:
        scheme = make_scheme("mfc-1/2-1bpc", PAGE, constraint_length=3)
        healthy = LifetimeSimulator(scheme, seed=3).run(cycles=2)
        defective = LifetimeSimulator(
            scheme, seed=3, defect_fraction=0.05
        ).run(cycles=2)
        assert defective.lifetime_gain > 0.5 * healthy.lifetime_gain
        assert defective.lifetime_gain >= 4

    def test_wom_collapses_with_stuck_cells(self) -> None:
        result = LifetimeSimulator(
            make_scheme("wom", PAGE), seed=3, defect_fraction=0.05
        ).run(cycles=2)
        assert result.lifetime_gain <= 0.5

    def test_defects_verified_reads_still_consistent(self) -> None:
        scheme = make_scheme("mfc-1/2-1bpc", PAGE, constraint_length=3)
        LifetimeSimulator(
            scheme, seed=4, verify_reads=True, defect_fraction=0.03
        ).run(cycles=2)

    def test_defect_fraction_validated(self) -> None:
        scheme = make_scheme("wom", PAGE)
        with pytest.raises(ConfigurationError):
            LifetimeSimulator(scheme, defect_fraction=1.0)
        with pytest.raises(ConfigurationError):
            LifetimeSimulator(scheme, defect_fraction=-0.1)

    def test_non_cell_scheme_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="not cell-based"):
            LifetimeSimulator(make_scheme("uncoded", 64), defect_fraction=0.1)

    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
    def test_a_defect_run_draws_what_integers_calls_draw(
        self, monkeypatch, batched
    ) -> None:
        """A run carries the PCG64's kept half from dataword to dataword (31
        32-bit draws each: the half changes every write) while the defect
        draws (``rng.random``) come in between: the run, and where it leaves
        an injected generator, are those of one ``integers`` call a word."""
        scheme = make_scheme("mfc-1/2-1bpc", PAGE, constraint_length=3)
        assert (scheme.dataword_bits + 3) // 4 % 2 == 1

        def run():
            rngs = [np.random.default_rng(seed) for seed in (8, 9)]
            if batched:
                simulator = BatchLifetimeSimulator(
                    scheme, seeds=rngs, defect_fraction=0.03
                )
            else:
                simulator = LifetimeSimulator(
                    scheme, seed=rngs[0], defect_fraction=0.03
                )
            result = simulator.run(cycles=3)
            return result.writes_per_cycle_by_lane, [r.bit_generator.state for r in rngs]

        carried = run()
        monkeypatch.setattr(lifetime, "RandomBits", _IntegersCalls)
        assert run() == carried

    def test_zero_defects_matches_plain_run(self) -> None:
        scheme = make_scheme("wom", PAGE)
        plain = LifetimeSimulator(scheme, seed=5).run(cycles=2)
        zero = LifetimeSimulator(scheme, seed=5, defect_fraction=0.0).run(cycles=2)
        assert plain.writes_per_cycle == zero.writes_per_cycle


class _IntegersCalls:
    """The datawords as ``integers`` draws them, one call a word."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def __call__(self, count: int) -> np.ndarray:
        return self._rng.integers(0, 2, count, dtype=np.uint8)

    def __enter__(self) -> _IntegersCalls:
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class TestUpdateTrace:
    def test_fraction_bookkeeping(self) -> None:
        trace = UpdateTrace()
        trace.record_update(1, np.array([0, 0]), np.array([1, 0]))
        trace.record_update(1, np.array([0, 0]), np.array([1, 1]))
        trace.record_update(2, np.array([1, 1]), np.array([1, 2]))
        by_update = trace.increment_fraction_by_update()
        assert by_update[1] == pytest.approx(0.75)
        assert by_update[2] == pytest.approx(0.5)
        assert trace.mean_increment_fraction() == pytest.approx((0.5 + 1 + 0.5) / 3)

    def test_histogram_accumulates(self) -> None:
        trace = UpdateTrace()
        trace.record_erase(np.array([0, 3, 3]), num_levels=4)
        trace.record_erase(np.array([1, 2, 3]), num_levels=4)
        assert trace.level_histogram(normalize=False).tolist() == [1, 1, 1, 3]
        assert trace.level_histogram().sum() == pytest.approx(1.0)

    def test_empty_trace(self) -> None:
        trace = UpdateTrace()
        assert not trace.has_data
        assert np.isnan(trace.mean_increment_fraction())
        assert trace.level_histogram().size == 0
