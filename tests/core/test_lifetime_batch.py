"""The lockstep batch lifetime engine against the scalar reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BatchLifetimeSimulator,
    LifetimeResult,
    LifetimeSimulator,
    make_scheme,
)
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, simulate

PAGE = 480

SCHEMES = [
    ("wom", {}),
    ("mfc-1/2-1bpc", {"constraint_length": 3}),
    ("mfc-4/5", {"constraint_length": 3}),
]


@pytest.mark.parametrize("name,kwargs", SCHEMES)
class TestLaneEquivalence:
    def test_each_lane_reproduces_scalar_run(self, name, kwargs) -> None:
        """Lane i of any batch == scalar run with seed base + i."""
        scheme = make_scheme(name, PAGE, **kwargs)
        lanes, base = 4, 50
        batch = BatchLifetimeSimulator(scheme, lanes=lanes, seed=base).run(
            cycles=3
        )
        for lane in range(lanes):
            scalar = LifetimeSimulator(scheme, seed=base + lane).run(cycles=3)
            assert (
                batch.writes_per_cycle_by_lane[lane]
                == scalar.writes_per_cycle
            )

    def test_single_lane_matches_scalar_trace(self, name, kwargs) -> None:
        """lanes=1 reproduces the scalar run completely, instrumentation too."""
        scheme = make_scheme(name, PAGE, **kwargs)
        batch = BatchLifetimeSimulator(scheme, lanes=1, seed=9).run(cycles=2)
        scalar = LifetimeSimulator(scheme, seed=9).run(cycles=2)
        assert batch.writes_per_cycle == scalar.writes_per_cycle
        assert (
            batch.trace.increment_fraction_by_update()
            == scalar.trace.increment_fraction_by_update()
        )
        assert np.array_equal(
            batch.trace.level_histogram(), scalar.trace.level_histogram()
        )


class TestBatchResult:
    def _batch(self, lanes=3):
        scheme = make_scheme("wom", PAGE)
        return BatchLifetimeSimulator(scheme, lanes=lanes, seed=1).run(cycles=2)

    def test_merged_is_scalar_shaped(self) -> None:
        batch = self._batch()
        merged = batch.merged()
        assert isinstance(merged, LifetimeResult)
        assert merged.writes_per_cycle == batch.writes_per_cycle
        assert merged.lifetime_gain == batch.lifetime_gain
        assert merged.aggregate_gain == batch.aggregate_gain

    def test_lane_result_slices_one_lane(self) -> None:
        batch = self._batch()
        for lane in range(batch.lanes):
            result = batch.lane_result(lane)
            assert (
                result.writes_per_cycle == batch.writes_per_cycle_by_lane[lane]
            )

    def test_lane_major_flattening(self) -> None:
        batch = self._batch()
        assert batch.writes_per_cycle == tuple(
            count
            for lane in batch.writes_per_cycle_by_lane
            for count in lane
        )


class TestRngInjection:
    def test_scalar_accepts_generator(self) -> None:
        scheme = make_scheme("wom", PAGE)
        by_seed = LifetimeSimulator(scheme, seed=42).run(cycles=2)
        by_rng = LifetimeSimulator(
            scheme, seed=np.random.default_rng(42)
        ).run(cycles=2)
        assert by_seed.writes_per_cycle == by_rng.writes_per_cycle

    def test_batch_accepts_per_lane_generators(self) -> None:
        scheme = make_scheme("wom", PAGE)
        batch = BatchLifetimeSimulator(
            scheme, seeds=[np.random.default_rng(5), 6]
        ).run(cycles=2)
        assert batch.lanes == 2
        s5 = LifetimeSimulator(scheme, seed=5).run(cycles=2)
        s6 = LifetimeSimulator(scheme, seed=6).run(cycles=2)
        assert batch.writes_per_cycle_by_lane == (
            s5.writes_per_cycle,
            s6.writes_per_cycle,
        )

    def test_shared_stream_between_scalar_and_batch(self) -> None:
        """The same injected generator drives either engine identically."""
        scheme = make_scheme("wom", PAGE)
        scalar = LifetimeSimulator(
            scheme, seed=np.random.default_rng(77)
        ).run(cycles=2)
        batch = BatchLifetimeSimulator(
            scheme, seeds=[np.random.default_rng(77)]
        ).run(cycles=2)
        assert batch.writes_per_cycle_by_lane[0] == scalar.writes_per_cycle


class TestDefectsAndValidation:
    def test_defect_lanes_match_scalar(self) -> None:
        scheme = make_scheme("mfc-1/2-1bpc", PAGE, constraint_length=3)
        batch = BatchLifetimeSimulator(
            scheme, lanes=3, seed=2, defect_fraction=0.05
        ).run(cycles=2)
        for lane in range(3):
            scalar = LifetimeSimulator(
                scheme, seed=2 + lane, defect_fraction=0.05
            ).run(cycles=2)
            assert (
                batch.writes_per_cycle_by_lane[lane]
                == scalar.writes_per_cycle
            )

    def test_rejects_zero_lanes(self) -> None:
        scheme = make_scheme("wom", PAGE)
        with pytest.raises(ConfigurationError):
            BatchLifetimeSimulator(scheme, lanes=0)

    def test_rejects_zero_cycles(self) -> None:
        scheme = make_scheme("wom", PAGE)
        with pytest.raises(ConfigurationError):
            BatchLifetimeSimulator(scheme, lanes=2).run(cycles=0)

    def test_collect_trace_off_skips_instrumentation(self) -> None:
        scheme = make_scheme("wom", PAGE)
        batch = BatchLifetimeSimulator(
            scheme, lanes=2, seed=0, collect_trace=False
        ).run(cycles=2)
        assert not batch.trace.has_data
        # Write counts are unaffected by the instrumentation toggle.
        traced = BatchLifetimeSimulator(scheme, lanes=2, seed=0).run(cycles=2)
        assert batch.writes_per_cycle == traced.writes_per_cycle

    def test_verify_reads_passes_on_correct_scheme(self) -> None:
        scheme = make_scheme("mfc-1/2-1bpc", PAGE, constraint_length=3)
        batch = BatchLifetimeSimulator(
            scheme, lanes=2, seed=4, verify_reads=True
        ).run(cycles=2)
        assert all(
            count > 0
            for lane in batch.writes_per_cycle_by_lane
            for count in lane
        )


class TestExperimentRouting:
    def test_lanes_one_reproduces_historical_numbers(self) -> None:
        """The default config must keep every experiment bit-identical."""
        scheme = make_scheme("wom", PAGE)
        config = ExperimentConfig(page_bytes=PAGE // 8, cycles=2, seed=11)
        routed = simulate("wom", config)
        direct = LifetimeSimulator(scheme, seed=11).run(cycles=2)
        assert routed.writes_per_cycle == direct.writes_per_cycle

    def test_multi_lane_pools_cycles(self) -> None:
        config = ExperimentConfig(
            page_bytes=PAGE // 8, cycles=2, seed=11, lanes=3
        )
        routed = simulate("wom", config)
        assert len(routed.writes_per_cycle) == 3 * 2
        assert isinstance(routed, LifetimeResult)

    def test_lanes_env_var(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_LANES", "4")
        assert ExperimentConfig.from_env().lanes == 4
