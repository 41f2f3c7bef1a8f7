"""The workload-unification acceptance test.

One registry workload (name + parameters), replayed through both
harnesses — the offline lifetime simulator and the TCP serving stack —
must drive the device through the identical op sequence: same LPNs in the
same order with the same payload bytes, hence bit-identical device end
state.
"""

from __future__ import annotations

import asyncio
import itertools

import numpy as np

from repro.flash import FlashGeometry
from repro.server import StorageService
from repro.server.loadgen import run_closed_loop
from repro.ssd import SSD
from repro.ssd.simulator import run_until_death
from repro.workload import make_workload

GEOM = FlashGeometry(blocks=8, pages_per_block=8, page_bits=256,
                     erase_limit=100_000)
SCHEME = "mfc-1/2-1bpc"
WORKLOAD = "uniform"
SEED = 2016
OPS = 120


def make_ssd() -> SSD:
    return SSD(geometry=GEOM, scheme=SCHEME, utilization=0.5,
               constraint_length=4)


def chip_image(ssd: SSD) -> np.ndarray:
    return np.stack([
        np.stack([ssd.chip.read_page(b, p, noisy=False)
                  for p in range(GEOM.pages_per_block)])
        for b in range(GEOM.blocks)
    ])


def outcome(ssd: SSD) -> dict:
    stats = ssd.ftl.stats
    return {
        "host_writes": stats.host_writes,
        "in_place_rewrites": stats.in_place_rewrites,
        "relocations": stats.relocations,
        "block_erases": ssd.chip.stats.block_erases,
    }


class TestTwoHarnessEquivalence:
    def test_same_spec_same_device_state_everywhere(self) -> None:
        # Harness 1: the offline simulator consumes the registry's stream.
        sim_ssd = make_ssd()
        sim_result = run_until_death(
            sim_ssd, make_workload(WORKLOAD, sim_ssd.logical_pages, seed=SEED),
            max_writes=OPS,
        )
        assert sim_result.host_writes == OPS

        # Harness 2: the same workload drives the serving stack over loopback
        # (one closed-loop client => a total order fixed by the seed).
        async def serve() -> tuple[dict, np.ndarray]:
            srv_ssd = make_ssd()
            async with StorageService(srv_ssd) as service:
                await run_closed_loop(
                    "127.0.0.1", service.port,
                    clients=1, ops_per_client=OPS,
                    workload=WORKLOAD, seed=SEED,
                )
            return outcome(srv_ssd), chip_image(srv_ssd)

        srv_outcome, srv_image = asyncio.run(serve())

        # Identical op sequence => identical device trajectory: the FTL
        # counters agree and every physical page stores the same bits.
        assert outcome(sim_ssd) == srv_outcome
        assert np.array_equal(chip_image(sim_ssd), srv_image)

    def test_mixed_spec_builds_identical_streams_for_all_harnesses(
        self,
    ) -> None:
        """The multi-tenant composite is equally registry-driven: the stream
        the simulator interleaves and the stream the open-loop generator
        dispatches are the same object graph with the same draws."""
        a = make_workload("mixed", 64, seed=SEED, base="uniform", tenants=2)
        b = make_workload("mixed", 64, seed=SEED, base="uniform", tenants=2)
        ops_a = list(itertools.islice(a, 200))
        ops_b = list(itertools.islice(b, 200))
        assert ops_a == ops_b
        assert {op.tenant for op in ops_a} == {0, 1}
