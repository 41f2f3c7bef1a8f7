#!/usr/bin/env python3
"""Device-level simulation: how page rewriting codes stretch a whole SSD.

Builds small SSDs (chip + FTL + scheme), runs them to death under uniform
and hot/cold workloads, and compares total host writes, erases, and wear
spread with and without wear leveling.

Run:  python examples/ssd_device_sim.py
"""

from repro.flash import FlashGeometry
from repro.ftl import DynamicWearLeveling, NoWearLeveling
from repro.ssd import SSD, format_device_report, run_until_death
from repro.workload import HotColdWorkload, UniformWorkload

GEOMETRY = FlashGeometry(blocks=8, pages_per_block=8, page_bits=384,
                         erase_limit=25)


def compare_schemes() -> None:
    print("=== scheme comparison (uniform workload, to device death) ===")
    results = []
    for scheme in ("uncoded", "wom", "mfc-1/2-1bpc"):
        kwargs = {"constraint_length": 4} if scheme.startswith("mfc") else {}
        ssd = SSD(geometry=GEOMETRY, scheme=scheme, utilization=0.6, **kwargs)
        workload = UniformWorkload(ssd.logical_pages, seed=1)
        results.append(run_until_death(ssd, workload, max_writes=500_000))
    print(format_device_report(results))
    mfc, uncoded = results[2], results[0]
    print(f"\nMFC-1/2-1BPC absorbed {mfc.host_writes / uncoded.host_writes:.1f}x "
          f"the host writes of the uncoded device, and "
          f"{mfc.host_bits_written / uncoded.host_bits_written:.1f}x the host "
          f"*data* despite exposing 1/6 the capacity.")
    print()


def compare_wear_leveling() -> None:
    print("=== wear leveling under a hot/cold workload (WOM device) ===")
    results = []
    for name, policy in (("none", NoWearLeveling()),
                         ("dynamic", DynamicWearLeveling())):
        ssd = SSD(geometry=GEOMETRY, scheme="wom", utilization=0.6,
                  wear_leveling=policy)
        workload = HotColdWorkload(ssd.logical_pages, seed=2)
        result = run_until_death(ssd, workload, max_writes=500_000)
        results.append(result)
        print(f"  {name:<8} wear gap {result.wear_spread:>3} erases, "
              f"{result.host_writes} host writes")
    print("\n(wear leveling and rewriting codes are complementary — paper "
          "Section IX)")


if __name__ == "__main__":
    compare_schemes()
    compare_wear_leveling()
