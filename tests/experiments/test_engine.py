"""Tests for the one simulation entry point (`engine.simulate`)."""

from __future__ import annotations

from repro.core import BatchLifetimeSimulator, LifetimeSimulator, make_scheme
from repro.experiments import engine
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import simulate
from repro.experiments.extensions import run_extensions
from repro.experiments.table1 import TABLE1_SCHEMES, run_table1

PAGE_BITS = 768
CYCLES = 2
SEED = 7
NAME = "mfc-1/2-1bpc"


def _scheme(page_bits: int = PAGE_BITS, constraint_length: int = 3):
    return make_scheme(
        NAME, page_bits=page_bits, constraint_length=constraint_length
    )


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        page_bytes=PAGE_BITS // 8,
        cycles=CYCLES,
        seed=SEED,
        constraint_length=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestScalarPath:
    def test_lanes_1_matches_direct_scalar_run(self) -> None:
        via_engine = simulate(NAME, _config(lanes=1))
        direct = LifetimeSimulator(_scheme(), seed=SEED).run(cycles=CYCLES)
        assert via_engine.writes_per_cycle == direct.writes_per_cycle
        assert via_engine.lifetime_gain == direct.lifetime_gain

    def test_rerun_is_deterministic(self) -> None:
        first = simulate(NAME, _config())
        second = simulate(NAME, _config())
        assert first.writes_per_cycle == second.writes_per_cycle


class TestMergedPath:
    def test_lanes_gt_1_takes_merged_batch_path(self) -> None:
        via_engine = simulate(NAME, _config(lanes=3))
        direct = (
            BatchLifetimeSimulator(_scheme(), lanes=3, seed=SEED)
            .run(cycles=CYCLES)
            .merged()
        )
        assert via_engine.writes_per_cycle == direct.writes_per_cycle

    def test_merged_sample_size_scales_with_lanes(self) -> None:
        result = simulate(NAME, _config(lanes=3))
        assert len(result.writes_per_cycle) == 3 * CYCLES

    def test_lane_seed_derivation_matches_scalar_runs(self) -> None:
        """Lane i of a batched run is the scalar run seeded ``seed + i``."""
        merged = simulate(NAME, _config(lanes=2))
        scalar_lanes = [
            LifetimeSimulator(_scheme(), seed=SEED + lane).run(cycles=CYCLES)
            for lane in range(2)
        ]
        expected = tuple(
            count for run in scalar_lanes for count in run.writes_per_cycle
        )
        assert merged.writes_per_cycle == expected


class TestSimulateLanes:
    def test_simulate_is_the_config_wrapper(self) -> None:
        """Cycles, seed and lanes come from the config; ``page_bits`` and
        scheme keyword arguments override it."""
        config = _config(lanes=2, constraint_length=5)
        wrapped = simulate(NAME, config, page_bits=384, constraint_length=4)
        direct = (
            BatchLifetimeSimulator(_scheme(384, 4), lanes=2, seed=SEED)
            .run(cycles=CYCLES)
            .merged()
        )
        assert wrapped.writes_per_cycle == direct.writes_per_cycle


class TestConstraintLengthRule:
    """``simulate`` alone gives an MFC variant ``config.constraint_length``."""

    def _built(self, monkeypatch) -> list[tuple[str, dict]]:
        calls = []
        original = engine.scheme_for

        def recording(name, page_bits, kwargs=()):
            calls.append((name, dict(kwargs)))
            return original(name, page_bits, kwargs)

        monkeypatch.setattr(engine, "scheme_for", recording)
        return calls

    def test_table1_mfcs_use_the_configured_k(self, monkeypatch) -> None:
        calls = self._built(monkeypatch)
        run_table1(ExperimentConfig(page_bytes=24, cycles=1, constraint_length=3))
        assert [name for name, _ in calls] == list(TABLE1_SCHEMES)
        for name, kwargs in calls:
            expected = {"constraint_length": 3} if name.startswith("mfc") else {}
            assert kwargs == expected, name

    def test_extensions_ecc_takes_k_at_most_4(self, monkeypatch) -> None:
        calls = self._built(monkeypatch)
        run_extensions(
            ExperimentConfig(page_bytes=32, cycles=1, constraint_length=5)
        )
        assert calls == [
            ("waterfall", {}),
            ("mfc-1/2-1bpc", {"constraint_length": 5}),
            ("mfc-1/2-1bpc", {"constraint_length": 5, "vcell_levels": 8}),
            ("mfc-ecc", {"constraint_length": 4}),
            ("rank-modulation", {}),
        ]
