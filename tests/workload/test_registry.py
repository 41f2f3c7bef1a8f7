"""Registry and WorkloadSpec: the single source of workload truth."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.workload import (
    WORKLOADS,
    HotColdWorkload,
    UniformWorkload,
    WorkloadSpec,
    make_workload,
    register_workload,
    tenant_streams,
    workload_names,
)


class TestRegistry:
    def test_legacy_names_all_registered(self) -> None:
        assert set(WORKLOADS) == {"uniform", "hotcold", "zipf", "sequential"}
        assert set(WORKLOADS) < set(workload_names())

    def test_composites_registered(self) -> None:
        assert {"trace", "phased", "mixed"} <= set(workload_names())

    def test_make_workload_passes_parameters(self) -> None:
        wl = make_workload(
            "hotcold", 100, seed=3, hot_fraction=0.1, hot_probability=0.9
        )
        assert isinstance(wl, HotColdWorkload)
        assert wl.hot_pages == 10

    def test_same_distributions_as_simulator(self) -> None:
        a = make_workload("uniform", 32, seed=9)
        b = UniformWorkload(32, seed=9)
        assert type(a) is type(b)
        assert [next(a) for _ in range(10)] == [next(b) for _ in range(10)]

    def test_unknown_name(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown workload"):
            make_workload("bursty", 16)

    def test_bad_parameter_is_configuration_error(self) -> None:
        with pytest.raises(ConfigurationError, match="uniform"):
            make_workload("uniform", 16, hotness=3)

    def test_duplicate_registration_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="already registered"):
            register_workload("uniform", lambda pages, seed=0: None)

    def test_tenant_streams_tagged_and_seeded(self) -> None:
        streams = tenant_streams("uniform", 64, seed=4, tenants=3)
        assert [s.tenant for s in streams] == [0, 1, 2]
        assert len({s.seed for s in streams}) == 3


class TestWorkloadSpec:
    def test_of_sorts_params(self) -> None:
        spec = WorkloadSpec.of("hotcold", hot_probability=0.9,
                               hot_fraction=0.1)
        assert spec.params == (
            ("hot_fraction", 0.1), ("hot_probability", 0.9),
        )

    def test_value_semantics(self) -> None:
        a = WorkloadSpec.of("zipf", skew=1.5)
        b = WorkloadSpec.of("zipf", skew=1.5)
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a

    def test_build_matches_make_workload(self) -> None:
        spec = WorkloadSpec.of("zipf", skew=1.5)
        a = spec.build(64, seed=7)
        b = make_workload("zipf", 64, seed=7, skew=1.5)
        assert [next(a) for _ in range(30)] == [next(b) for _ in range(30)]

    def test_describe(self) -> None:
        assert WorkloadSpec.of("uniform").describe() == "uniform"
        assert "skew=1.5" in WorkloadSpec.of("zipf", skew=1.5).describe()
