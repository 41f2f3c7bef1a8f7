"""Integration tests for whole-device simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.flash import FlashGeometry
from repro.ssd import (
    SSD,
    DeviceLifetimeResult,
    format_device_report,
    run_until_death,
)
from repro.workload import HotColdWorkload, UniformWorkload

GEOM = FlashGeometry(blocks=6, pages_per_block=4, page_bits=192, erase_limit=8)


class TestSSDConstruction:
    def test_uncoded_device(self) -> None:
        ssd = SSD(geometry=GEOM, scheme="uncoded", utilization=0.5)
        assert ssd.logical_page_bits == 192
        assert ssd.logical_pages == 10  # 0.5 * (6-1)*4

    def test_coded_device_has_smaller_logical_pages(self) -> None:
        ssd = SSD(geometry=GEOM, scheme="wom", utilization=0.5)
        assert ssd.logical_page_bits == 128  # 2/3 of 192

    def test_bad_utilization(self) -> None:
        with pytest.raises(ConfigurationError):
            SSD(geometry=GEOM, utilization=0.0)

    def test_read_write(self) -> None:
        ssd = SSD(geometry=GEOM, scheme="wom", utilization=0.5)
        rng = np.random.default_rng(0)
        data = rng.integers(0, 2, ssd.logical_page_bits, dtype=np.uint8)
        ssd.write(0, data)
        assert np.array_equal(ssd.read(0), data)


class TestDeviceLifetime:
    def _lifetime(self, scheme: str, **kw) -> DeviceLifetimeResult:
        ssd = SSD(geometry=GEOM, scheme=scheme, utilization=0.5, **kw)
        workload = UniformWorkload(ssd.logical_pages, seed=1)
        return run_until_death(ssd, workload, max_writes=100_000)

    def test_all_devices_eventually_die(self) -> None:
        result = self._lifetime("uncoded")
        assert 0 < result.host_writes < 100_000
        assert result.retired_blocks > 0

    def test_wom_outlives_uncoded(self) -> None:
        uncoded = self._lifetime("uncoded")
        wom = self._lifetime("wom")
        assert wom.host_writes > uncoded.host_writes
        assert wom.writes_per_erase > uncoded.writes_per_erase

    def test_mfc_outlives_wom(self) -> None:
        wom = self._lifetime("wom")
        mfc = self._lifetime("mfc-1/2-1bpc", constraint_length=3)
        assert mfc.host_writes > wom.host_writes
        assert mfc.in_place_rewrites > wom.in_place_rewrites

    def test_hot_cold_workload_runs(self) -> None:
        ssd = SSD(geometry=GEOM, scheme="wom", utilization=0.5)
        workload = HotColdWorkload(ssd.logical_pages, seed=2)
        result = run_until_death(ssd, workload, max_writes=100_000)
        assert result.host_writes > 0

    def test_report_formatting(self) -> None:
        results = [self._lifetime("uncoded"), self._lifetime("wom")]
        report = format_device_report(results)
        assert "uncoded" in report and "wom" in report
        assert "host writes" in report


class TestLifetimeState:
    """Public end-of-life surface used by the serving layer."""

    def _device(self) -> SSD:
        return SSD(geometry=GEOM, scheme="wom", utilization=0.5)

    def test_fresh_device_is_healthy(self) -> None:
        ssd = self._device()
        assert ssd.lifetime_state == "healthy"
        assert not ssd.read_only

    def test_latched_device_reports_read_only(self) -> None:
        ssd = self._device()
        ssd.enter_read_only()
        assert ssd.lifetime_state == "read_only"
        assert ssd.read_only

    def test_absorbed_damage_reports_degraded(self) -> None:
        ssd = self._device()
        ssd.ftl.stats.program_failures += 1
        assert ssd.lifetime_state == "degraded"

    def test_run_to_death_ends_read_only(self) -> None:
        ssd = self._device()
        run_until_death(ssd, UniformWorkload(ssd.logical_pages, seed=1),
                        max_writes=100_000)
        assert ssd.lifetime_state == "read_only"


class TestWriteBatchAndTrim:
    def _data(self, ssd: SSD, count: int) -> np.ndarray:
        rng = np.random.default_rng(3)
        return rng.integers(0, 2, (count, ssd.logical_page_bits),
                            dtype=np.uint8)

    def test_write_batch_matches_sequential_writes(self) -> None:
        batched = SSD(geometry=GEOM, scheme="mfc-1/2-1bpc", utilization=0.5,
                      constraint_length=4)
        serial = SSD(geometry=GEOM, scheme="mfc-1/2-1bpc", utilization=0.5,
                     constraint_length=4)
        lpns = [0, 1, 2, 3]
        datas = self._data(batched, len(lpns))
        batched.write_batch(lpns, datas)
        for lpn, data in zip(lpns, datas):
            serial.write(lpn, data)
        for lpn, data in zip(lpns, datas):
            assert np.array_equal(batched.read(lpn), data)
            assert np.array_equal(serial.read(lpn), data)

    def test_write_batch_on_uncoded_device_falls_back(self) -> None:
        ssd = SSD(geometry=GEOM, scheme="uncoded", utilization=0.5)
        datas = self._data(ssd, 3)
        ssd.write_batch([0, 1, 2], datas)
        for lpn in range(3):
            assert np.array_equal(ssd.read(lpn), datas[lpn])

    def test_write_batch_rejected_once_read_only(self) -> None:
        from repro.errors import ReadOnlyModeError

        ssd = SSD(geometry=GEOM, scheme="wom", utilization=0.5)
        ssd.enter_read_only()
        with pytest.raises(ReadOnlyModeError):
            ssd.write_batch([0], self._data(ssd, 1))

    def test_trim_discards_and_respects_read_only(self) -> None:
        from repro.errors import ReadOnlyModeError

        ssd = SSD(geometry=GEOM, scheme="wom", utilization=0.5)
        ssd.write(0, self._data(ssd, 1)[0])
        ssd.trim(0)
        ssd.enter_read_only()
        with pytest.raises(ReadOnlyModeError):
            ssd.trim(0)
