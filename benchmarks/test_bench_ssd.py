"""Device-level extension bench: page gains reach the device, and wear
leveling (paper Section IX) composes with MFCs under skewed workloads."""

from __future__ import annotations

from repro.flash import FlashGeometry
from repro.ftl import DynamicWearLeveling, NoWearLeveling, StaticWearLeveling
from repro.ssd import SSD, format_device_report, run_until_death
from repro.workload import HotColdWorkload, UniformWorkload

GEOM = FlashGeometry(blocks=8, pages_per_block=8, page_bits=384, erase_limit=20)


def _run(scheme: str, wear_leveling, workload_cls, seed=3):
    kwargs = {"constraint_length": 4} if scheme.startswith("mfc") else {}
    ssd = SSD(geometry=GEOM, scheme=scheme, utilization=0.6,
              wear_leveling=wear_leveling, **kwargs)
    workload = workload_cls(ssd.logical_pages, seed=seed)
    return run_until_death(ssd, workload, max_writes=300_000)


def test_bench_ssd_device_lifetime(benchmark) -> None:
    def sweep():
        return {
            "uncoded": _run("uncoded", DynamicWearLeveling(), UniformWorkload),
            "wom": _run("wom", DynamicWearLeveling(), UniformWorkload),
            "mfc": _run("mfc-1/2-1bpc", DynamicWearLeveling(), UniformWorkload),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_device_report(list(results.values())))

    # Page-level gains must materialize at device level.
    assert results["wom"].host_writes > results["uncoded"].host_writes
    assert results["mfc"].host_writes > 3 * results["wom"].host_writes
    assert results["mfc"].writes_per_erase > 5 * results["uncoded"].writes_per_erase

    # Coded devices write more total host data despite lower capacity.
    assert results["mfc"].host_bits_written > results["uncoded"].host_bits_written


def test_bench_ssd_wear_leveling(benchmark) -> None:
    def sweep():
        return {
            "none": _run("wom", NoWearLeveling(), HotColdWorkload),
            "dynamic": _run("wom", DynamicWearLeveling(), HotColdWorkload),
            "static": _run("wom", StaticWearLeveling(threshold=4),
                           HotColdWorkload),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_device_report(list(results.values())))

    # Leveling narrows the wear gap (or at least never widens it) and
    # never loses device lifetime under a hot/cold workload.
    assert results["dynamic"].wear_spread <= results["none"].wear_spread + 1
    assert results["dynamic"].host_writes >= results["none"].host_writes * 0.9
    # Static migration keeps the gap at least as tight as dynamic-only.
    assert results["static"].wear_spread <= results["dynamic"].wear_spread + 1
