#!/usr/bin/env python3
"""Why virtual cells exist: ideal-cell codes break on real flash.

Prior endurance codes assume any cell-level increase is one program
operation.  Real MLC NAND forbids L1 -> L2 and single-shot L0 -> L3
(paper Fig. 2).  This example drives both the real and the ideal cell
models, shows exactly where the ideal assumption explodes, and then builds
the paper's 4-level *virtual* cell (Fig. 6) out of three bits of one page —
restoring the ideal interface on real hardware.

Run:  python examples/virtual_cells.py
"""

import numpy as np

from repro.errors import IllegalTransitionError
from repro.flash import IDEAL_MLC, MLC, Page, Wordline
from repro.vcell import VCellArray, VCellSpec


def demo_real_mlc() -> None:
    print("=== real MLC (paper Fig. 2) ===")
    print(f"legal transitions from each level:")
    for level in range(4):
        print(f"  L{level} -> {list(MLC.legal_targets(level)) or 'nothing (saturated)'}")

    wordline = Wordline(MLC, [Page(4), Page(4)])
    wordline.program_levels(np.array([1, 1, 0, 0]))
    print(f"cells now at levels {wordline.read_levels().tolist()}")
    try:
        wordline.program_levels(np.array([2, 1, 0, 0]))  # L1 -> L2
    except IllegalTransitionError as error:
        print(f"ideal-cell code tries L1 -> L2 ... REJECTED: {error}")
    try:
        wordline.program_levels(np.array([1, 1, 3, 0]))  # L0 -> L3, one shot
    except IllegalTransitionError as error:
        print(f"ideal-cell code tries L0 -> L3 ... REJECTED: {error}")
    print()


def demo_ideal_mlc() -> None:
    print("=== the ideal cell prior work assumed (no real chip has this) ===")
    wordline = Wordline(IDEAL_MLC, [Page(4), Page(4)])
    wordline.program_levels(np.array([1, 1, 0, 0]))
    wordline.program_levels(np.array([2, 1, 3, 0]))  # everything allowed
    print(f"L1->L2 and L0->L3 both fine: levels = "
          f"{wordline.read_levels().tolist()}")
    print()


def demo_virtual_cell() -> None:
    print("=== the paper's fix: a 4-level v-cell from 3 page bits (Fig. 6) ===")
    spec = VCellSpec(levels=4)
    for level in range(4):
        patterns = [f"{p:03b}" for p in spec.patterns_of_level(level)]
        print(f"  L{level} is any of {patterns}")
    cell = VCellArray(spec, page_bits=3)  # a page holding one v-cell
    bits = cell.erased_page()
    for target in (1, 2, 3):
        bits = cell.program_levels(bits, np.array([target]))
        print(f"  programmed to L{cell.levels(bits)[0]} "
              f"(page bits {''.join(map(str, bits))}) — one page program, "
              "always legal")

    print()
    print("and vectorized over a whole page:")
    varray = VCellArray(spec, page_bits=12)
    page = varray.erased_page()
    page = varray.program_levels(page, np.array([3, 1, 2, 0]))
    print(f"  12 page bits -> 4 v-cells at levels "
          f"{varray.levels(page).tolist()}")
    print(f"  (every monotone level pattern is reachable: the ideal "
          f"interface, on real flash)")


if __name__ == "__main__":
    demo_real_mlc()
    demo_ideal_mlc()
    demo_virtual_cell()
