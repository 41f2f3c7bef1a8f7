"""Golden device runs: the exact counters and chip image of two seeded runs.

Both runs are ``python -m repro.ssd --workload zipf --max-writes 2000
--blocks 8 --pages-per-block 8 --page-bytes 64 --constraint-length 4`` with
the runner's other defaults (seed 1, erase limit 25, utilization 0.6,
dynamic wear leveling).  A speed-up of the chip's program check, the FTL or
the payload derivation must leave every number here unchanged; a change
that means to move them updates the table in the same commit.  After the
MFC run, every kernel backend reads every mapped page back to the same
dataword.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.coding import kernels
from repro.flash import FlashGeometry
from repro.ftl import DynamicWearLeveling
from repro.ssd import SSD, run_until_death
from repro.workload import make_workload

GEOM = FlashGeometry(blocks=8, pages_per_block=8, page_bits=64 * 8,
                     erase_limit=25)

GOLDEN = {
    "wom": {
        "host_writes": 2000,
        "block_erases": 163,
        "in_place_rewrites": 1100,
        "relocations": 1322,
        "gc_relocations": 455,
        "gc_runs": 163,
        "bits_programmed": 347559,
        "chip_sha256": "903dd97a46ace7d9c0e5d9463552625a"
                       "e68c03e069c52e6dbd87fac61f8930d6",
    },
    "mfc-1/2-1bpc": {
        "host_writes": 2000,
        "block_erases": 14,
        "in_place_rewrites": 1875,
        "relocations": 134,
        "gc_relocations": 42,
        "gc_runs": 14,
        "bits_programmed": 48845,
        "chip_sha256": "a648d37ca39a983fa9a2d9dba2fa64cf"
                       "5c613457353143b4c8bf8e68df7cc876",
    },
}


def _chip_sha256(ssd: SSD) -> str:
    """sha256 of every page's bits, block by block, packed MSB first."""
    bits = np.concatenate(
        [page.bits for block in ssd.chip.blocks for page in block.pages]
    )
    return hashlib.sha256(np.packbits(bits).tobytes()).hexdigest()


def _seeded_run(scheme: str):
    options = {"constraint_length": 4} if scheme.startswith("mfc") else {}
    ssd = SSD(geometry=GEOM, scheme=scheme, utilization=0.6,
              wear_leveling=DynamicWearLeveling(), **options)
    workload = make_workload("zipf", ssd.logical_pages, seed=1)
    return ssd, run_until_death(ssd, workload, max_writes=2000)


def _golden_run(scheme: str) -> dict:
    ssd, result = _seeded_run(scheme)
    stats = ssd.ftl.stats
    return {
        "host_writes": result.host_writes,
        "block_erases": result.block_erases,
        "in_place_rewrites": stats.in_place_rewrites,
        "relocations": stats.relocations,
        "gc_relocations": stats.gc_relocations,
        "gc_runs": stats.gc_runs,
        "bits_programmed": result.bits_programmed,
        "chip_sha256": _chip_sha256(ssd),
    }


@pytest.mark.parametrize("scheme", sorted(GOLDEN))
def test_seeded_zipf_run_is_unchanged(scheme: str) -> None:
    assert _golden_run(scheme) == GOLDEN[scheme]


def test_every_backend_reads_the_mfc_run_back_alike() -> None:
    ssd, _result = _seeded_run("mfc-1/2-1bpc")
    code = ssd.ftl.scheme.code
    lpns = [lpn for lpn in range(ssd.logical_pages)
            if ssd.ftl.mapping.lookup(lpn) is not None]
    assert len(lpns) > ssd.logical_pages // 2
    pages = np.stack([
        ssd.chip.read_page(*ssd.ftl.mapping.lookup(lpn)) for lpn in lpns
    ])
    host = np.stack([ssd.read(lpn) for lpn in lpns])
    for backend in kernels.available_backends():
        decode = kernels.resolve_backend(backend).decode
        assert np.array_equal(decode(code, pages), host), backend
        assert np.array_equal(decode(code, pages[:1]), host[:1]), backend
