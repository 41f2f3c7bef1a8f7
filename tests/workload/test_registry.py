"""The workload registry: the single source of workload truth."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.workload import (
    WORKLOADS,
    HotColdWorkload,
    MixedWorkload,
    PhasedWorkload,
    UniformWorkload,
    make_workload,
    tenant_streams,
)


class TestRegistry:
    def test_legacy_names_all_registered(self) -> None:
        assert set(WORKLOADS) == {"uniform", "hotcold", "zipf", "sequential"}

    def test_composites_registered(self) -> None:
        assert isinstance(make_workload("mixed", 16), MixedWorkload)
        phased = make_workload("phased", 16, schedule=(("uniform", 5),))
        assert isinstance(phased, PhasedWorkload)
        with pytest.raises(ConfigurationError, match="path parameter"):
            make_workload("trace", 16)

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

    def test_tenant_streams_tagged_and_seeded(self) -> None:
        streams = tenant_streams("uniform", 64, seed=4, tenants=3)
        assert [s.tenant for s in streams] == [0, 1, 2]
        assert len({s.seed for s in streams}) == 3

