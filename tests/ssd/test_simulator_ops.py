"""run_until_death over typed op streams: reads, trims, legacy iterators."""

from __future__ import annotations

import numpy as np

from repro.flash.geometry import FlashGeometry
from repro.ssd.device import SSD
from repro.ssd.simulator import run_until_death
from repro.workload import Op, OpKind, make_workload

GEOM = FlashGeometry(blocks=8, pages_per_block=8, page_bits=64,
                     erase_limit=100_000)


def make_ssd() -> SSD:
    return SSD(geometry=GEOM, scheme="uncoded", utilization=0.5)


class TestOpStreamConsumption:
    def test_reads_exercise_the_read_path(self) -> None:
        ssd = make_ssd()
        workload = make_workload(
            "uniform", ssd.logical_pages, seed=1, read_fraction=0.5
        )
        result = run_until_death(ssd, workload, max_writes=100)
        assert result.host_writes == 100
        assert result.host_reads > 0
        assert ssd.ftl.stats.host_reads == result.host_reads

    def test_trims_counted_and_discard_pages(self) -> None:
        ssd = make_ssd()
        workload = make_workload(
            "uniform", ssd.logical_pages, seed=1, trim_fraction=0.3
        )
        result = run_until_death(ssd, workload, max_writes=100)
        assert result.host_trims > 0

    def test_max_ops_bounds_read_heavy_streams(self) -> None:
        ssd = make_ssd()
        workload = make_workload(
            "uniform", ssd.logical_pages, seed=1, read_fraction=1.0
        )
        # A pure-read stream never reaches max_writes; max_ops stops it.
        result = run_until_death(ssd, workload, max_writes=50, max_ops=40)
        assert result.host_writes == 0
        assert result.host_reads <= 40

    def test_default_max_ops_is_ten_times_max_writes(self) -> None:
        ssd = make_ssd()
        workload = make_workload(
            "uniform", ssd.logical_pages, seed=1, read_fraction=1.0
        )
        result = run_until_death(ssd, workload, max_writes=5)
        assert result.host_reads <= 50

    def test_deterministic_payloads_give_identical_devices(self) -> None:
        images = []
        for _ in range(2):
            ssd = make_ssd()
            run_until_death(
                ssd, make_workload("uniform", ssd.logical_pages, seed=9),
                max_writes=200,
            )
            images.append(np.stack([
                ssd.chip.read_page(b, p, noisy=False)
                for b in range(GEOM.blocks)
                for p in range(GEOM.pages_per_block)
            ]))
        assert np.array_equal(images[0], images[1])

    def test_explicit_op_list_drives_device(self) -> None:
        ssd = make_ssd()
        ops = iter([
            Op(OpKind.WRITE, 0, data_seed=(1, 0, 0)),
            Op(OpKind.READ, 0),
            Op(OpKind.TRIM, 0),
            Op(OpKind.WRITE, 1, data_seed=(1, 1, 0)),
        ] * 10)
        result = run_until_death(ssd, ops, max_writes=1000, max_ops=40)
        assert result.host_writes == 20
        assert result.host_trims == 10
        assert result.host_reads >= 10
