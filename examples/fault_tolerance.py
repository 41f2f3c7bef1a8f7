#!/usr/bin/env python3
"""Fault tolerance: defective cells, wear-induced errors, and ECC.

Three fault stories the paper's related work raises, demonstrated on the
library:

1. stuck cells (manufacturing defects / early wearout): the MFC selection
   metric routes codewords around them; WOM collapses;
2. wear-dependent raw bit errors: the exponential BER model;
3. ECC-integrated cosets reading through corrupted cells transparently;
4. a whole-device fault campaign: the FTL rides out failed programs and
   grown-bad blocks, then dies gracefully into read-only mode.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.coding.ecc_coset import EccIntegratedCosetCode
from repro.core import LifetimeSimulator, make_scheme
from repro.faults import FaultProfile
from repro.flash.geometry import FlashGeometry
from repro.flash.noise import WearNoiseModel
from repro.ssd import SSD, format_reliability_report, run_until_death
from repro.workload import UniformWorkload


def stuck_cells() -> None:
    print("=== stuck cells: lifetime gain vs defect fraction ===")
    page_bits = 1536
    mfc = make_scheme("mfc-1/2-1bpc", page_bits, constraint_length=4)
    wom = make_scheme("wom", page_bits)
    print(f"{'stuck':>8}{'MFC-1/2-1BPC':>15}{'WOM':>8}")
    for fraction in (0.0, 0.02, 0.05, 0.10):
        mfc_gain = LifetimeSimulator(
            mfc, seed=1, defect_fraction=fraction
        ).run(cycles=2).lifetime_gain
        wom_gain = LifetimeSimulator(
            wom, seed=1, defect_fraction=fraction
        ).run(cycles=2).lifetime_gain
        print(f"{fraction:>8.0%}{mfc_gain:>15.1f}{wom_gain:>8.1f}")
    print("(the infinite-cost rule for saturated cells doubles as defect "
          "tolerance)\n")


def wear_noise() -> None:
    print("=== raw bit error rate vs program/erase cycles ===")
    model = WearNoiseModel(floor_ber=1e-6, growth=6.0, rated_cycles=3000)
    for cycles in (0, 1000, 2000, 3000, 4000):
        print(f"  {cycles:>5} cycles: BER {model.ber(cycles):.2e}, "
              f"~{model.expected_errors(32768, cycles):.2f} errors per 4KB read")
    print()


def ecc_reads_through_noise() -> None:
    print("=== ECC-integrated cosets under realistic noise ===")
    code = EccIntegratedCosetCode(page_bits=1536, constraint_length=4)
    model = WearNoiseModel(floor_ber=2e-4, growth=0.0)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, code.dataword_bits, dtype=np.uint8)
    page = code.encode(data, np.zeros(code.page_bits, np.uint8))
    clean, corrected, lost = 0, 0, 0
    for trial in range(50):
        noisy = model.corrupt(page, erase_count=0,
                              rng=np.random.default_rng(trial))
        report = code.decode_with_report(noisy)
        if report.detected_uncorrectable or not np.array_equal(report.data, data):
            lost += 1
        elif report.corrected_bits:
            corrected += 1
        else:
            clean += 1
    print(f"  50 reads at BER 2e-4 over {code.page_bits} bits:")
    print(f"  clean: {clean}, transparently corrected: {corrected}, "
          f"lost: {lost}")
    print(f"  (redundancy is scrambled across all cells by the coset code — "
          f"no parity hot spots)")


def device_fault_campaign() -> None:
    print("\n=== device-level fault campaign: graceful degradation ===")
    profile = FaultProfile(
        permanent_program_failure_rate=0.01,   # 1% of programs kill their page
        wear_stuck_rate=0.001,                 # cells stick as blocks wear...
        wear_stuck_onset=2,                    # ...from the 2nd erase on
    )
    geometry = FlashGeometry(blocks=8, pages_per_block=8, page_bits=384,
                             erase_limit=25)
    results = []
    for scheme in ("uncoded", "wom", "mfc-1/2-1bpc"):
        kwargs = {"constraint_length": 3} if scheme.startswith("mfc") else {}
        ssd = SSD(geometry=geometry, scheme=scheme, utilization=0.6,
                  fault_profile=profile, fault_seed=7, **kwargs)
        result = run_until_death(
            ssd, UniformWorkload(ssd.logical_pages, seed=1),
            max_writes=60_000, scrub_interval=100,
        )
        results.append(result)
        assert ssd.read_only  # every device ends latched read-only
    print(format_reliability_report(results))
    print("(every device absorbed failures, retired blocks early, and died\n"
          " into read-only mode with zero data-loss events)")


if __name__ == "__main__":
    stuck_cells()
    wear_noise()
    ecc_reads_through_noise()
    device_fault_campaign()
