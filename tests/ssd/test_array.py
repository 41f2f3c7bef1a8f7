"""Tests for the striped multi-channel device."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, LogicalAddressError
from repro.flash import FlashGeometry
from repro.ssd import StripedDevice
from repro.workload import UniformWorkload, payload_for

GEOM = FlashGeometry(blocks=4, pages_per_block=4, page_bits=96,
                     erase_limit=1000)


def make_device(channels=3, scheme="wom", **kw) -> StripedDevice:
    return StripedDevice(channels=channels, geometry=GEOM, scheme=scheme,
                         utilization=0.5, **kw)


class TestStriping:
    def test_capacity_scales_with_channels(self) -> None:
        one = make_device(channels=1)
        four = make_device(channels=4)
        assert four.logical_pages == 4 * one.logical_pages

    def test_read_your_writes_across_channels(self) -> None:
        device = make_device()
        rng = np.random.default_rng(0)
        blobs = {
            lpn: rng.integers(0, 2, device.logical_page_bits, dtype=np.uint8)
            for lpn in range(device.logical_pages)
        }
        for lpn, data in blobs.items():
            device.write(lpn, data)
        for lpn, data in blobs.items():
            assert np.array_equal(device.read(lpn), data)

    def test_adjacent_pages_land_on_different_channels(self) -> None:
        device = make_device(channels=3)
        rng = np.random.default_rng(1)
        for lpn in range(3):
            device.write(lpn, rng.integers(0, 2, device.logical_page_bits,
                                           dtype=np.uint8))
        per_channel = [ssd.ftl.stats.host_writes for ssd in device.channels]
        assert per_channel == [1, 1, 1]

    def test_uniform_load_balances(self) -> None:
        device = make_device(channels=4)
        workload = UniformWorkload(device.logical_pages, seed=2)
        for _ in range(400):
            op = next(workload)
            device.write(op.lpn, payload_for(op, device.logical_page_bits))
        assert device.channel_balance() > 0.7

    def test_bad_addresses(self) -> None:
        device = make_device()
        with pytest.raises(LogicalAddressError):
            device.read(device.logical_pages)

    def test_needs_a_channel(self) -> None:
        with pytest.raises(ConfigurationError):
            StripedDevice(channels=0, geometry=GEOM)


class TestParallelPerformance:
    def test_parallelism_divides_time_per_write(self) -> None:
        """Section VI's mitigation: more channels, less time per write."""

        def time_per_write(channels: int) -> float:
            device = make_device(channels=channels, scheme="mfc-1/2-1bpc",
                                 constraint_length=3)
            workload = UniformWorkload(device.logical_pages, seed=3)
            for _ in range(240):
                op = next(workload)
                device.write(op.lpn, payload_for(op, device.logical_page_bits))
            return device.parallel_time_per_write_us()

        single = time_per_write(1)
        quad = time_per_write(4)
        assert quad < single / 2.5  # near-linear scaling under uniform load

    def test_aggregate_report_consistent(self) -> None:
        device = make_device(channels=2)
        workload = UniformWorkload(device.logical_pages, seed=4)
        for _ in range(60):
            op = next(workload)
            device.write(op.lpn, payload_for(op, device.logical_page_bits))
        report = device.performance_report()
        assert report.host_writes == 60
        assert "x2ch" in report.scheme_name
        # Parallel estimate never exceeds the serialized estimate.
        assert device.parallel_time_per_write_us() <= report.per_host_write_us

    def test_empty_device_time_is_infinite(self) -> None:
        assert make_device().parallel_time_per_write_us() == float("inf")
