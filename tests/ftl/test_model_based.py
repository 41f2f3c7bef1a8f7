"""Lockstep model checking of the FTL against a naive reference FTL.

:class:`ReferenceFTL` is what a correct device looks like from outside: a
dict from logical page to payload, and one :class:`PageState` per physical
page, built only by watching the chip's program and erase calls, never by
reading the device's ``PageMapping``.  It runs in lockstep with an
:class:`~repro.ssd.SSD` under hypothesis-drawn reads, writes, trims, batches
and scrubs, with program faults and scheduled block and page kills.  After
every op the two agree on the mapped set, every payload, the live-page
count, the state of every page and the retired blocks.

A write may fail, latching the device read-only, in two cases only:

* ``OutOfSpaceError`` when capacity is really gone: no in-service page is
  erased, and every in-service block holding an invalid page also holds
  live data, so no block can be reclaimed without relocating;
* ``ProgramFailedError`` when one program failed past the retry budget.
"""

from __future__ import annotations

import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BlockWornOutError,
    OutOfSpaceError,
    ProgramFailedError,
    ReadOnlyModeError,
)
from repro.faults import FaultProfile, FaultSchedule, ScheduledFault
from repro.flash import FlashGeometry, SLC
from repro.ftl import BasicFTL, PhysicalPageState, StaticWearLeveling
from repro.ssd import SSD

Page = tuple[int, int]


class PageState(enum.Enum):
    ERASED = "erased"
    PROGRAMMED = "programmed"  # holds the current data of one logical page
    INVALID = "invalid"  # stale, or a failed program: garbage until erased
    DEAD = "dead"  # on a block out of service, holding nothing live


#: The device mapping's state for each state of an in-service page.
AS_MAPPED = {
    PageState.ERASED: PhysicalPageState.FREE,
    PageState.PROGRAMMED: PhysicalPageState.LIVE,
    PageState.INVALID: PhysicalPageState.INVALID,
}


def _key(bits) -> bytes:
    return np.asarray(bits, dtype=np.uint8).tobytes()


class ReferenceFTL:
    """The naive reference, driving ``ssd`` and checking it op by op.

    A successful program onto an erased page belongs to the logical page
    whose payload it decodes to.  Tests draw payloads with
    :meth:`fresh_payload`, which keeps them distinct across logical pages,
    so that owner is unambiguous.
    """

    def __init__(self, ssd: SSD) -> None:
        self.ssd = ssd
        geometry = ssd.geometry
        self.blocks = range(geometry.blocks)
        self.block_pages = range(geometry.pages_per_block)
        self.pages: dict[Page, PageState] = {
            (block, page): PageState.ERASED
            for block in self.blocks
            for page in self.block_pages
        }
        self.dead: set[int] = set()
        self.data: dict[int, np.ndarray] = {}
        self.home: dict[int, Page] = {}
        self.owner: dict[Page, int] = {}
        self.read_only = False
        #: Payload -> logical page, for the data held and the op running.
        self._by_payload: dict[bytes, int] = {}
        #: Bits of every failed program of the op running.
        self._failed: list[bytes] = []
        self._decode = np.asarray if ssd.scheme is None else ssd.scheme.read
        chip = ssd.chip
        self._chip_program, self._chip_erase = chip.program_page, chip.erase_block
        chip.program_page, chip.erase_block = self._program, self._erase

    # -- watching the chip ---------------------------------------------------

    def _program(self, block: int, page: int, bits: np.ndarray) -> None:
        addr = (block, page)
        state = self.pages[addr]
        assert state in (PageState.ERASED, PageState.PROGRAMMED), (
            f"program onto {state.name} page {addr}"
        )
        try:
            self._chip_program(block, page, bits)
        except ProgramFailedError as exc:
            self._failed.append(_key(bits))
            if state is PageState.ERASED:
                self.pages[addr] = PageState.INVALID
            if exc.permanent:
                self._kill(block)
            raise
        lpn = self._by_payload.get(_key(self._decode(bits)))
        assert lpn is not None, f"{addr} programmed with data nobody holds"
        if state is PageState.PROGRAMMED:
            assert self.owner[addr] == lpn, (
                f"in-place program of logical page {lpn} over "
                f"{self.owner[addr]}'s page {addr}"
            )
            return
        self._drop(lpn)
        self.home[lpn], self.owner[addr] = addr, lpn
        self.pages[addr] = PageState.PROGRAMMED

    def _erase(self, block: int) -> None:
        assert block not in self.dead, f"erase of retired block {block}"
        live = [
            page for page in self.block_pages
            if self.pages[(block, page)] is PageState.PROGRAMMED
        ]
        assert not live, f"erase of block {block} destroys live pages {live}"
        try:
            self._chip_erase(block)
        except BlockWornOutError:
            self._kill(block)
            raise
        for page in self.block_pages:
            self.pages[(block, page)] = PageState.ERASED
        if self.ssd.chip.blocks[block].worn_out:
            self._kill(block)

    def _kill(self, block: int) -> None:
        """Take ``block`` out of service; its live pages stay readable."""
        self.dead.add(block)
        for page in self.block_pages:
            if self.pages[(block, page)] is not PageState.PROGRAMMED:
                self.pages[(block, page)] = PageState.DEAD

    def _drop(self, lpn: int) -> None:
        """``lpn``'s page, if any, no longer holds current data."""
        addr = self.home.pop(lpn, None)
        if addr is not None:
            del self.owner[addr]
            self.pages[addr] = (
                PageState.DEAD if addr[0] in self.dead else PageState.INVALID
            )

    # -- host ops ------------------------------------------------------------

    def fresh_payload(self, rng, lpn: int, taken: dict[bytes, int]):
        """A random payload that no other logical page in ``taken`` holds;
        records it there."""
        while True:
            word = rng.integers(0, 2, self.ssd.logical_page_bits, dtype=np.uint8)
            if taken.setdefault(_key(word), lpn) == lpn:
                return word

    def write(self, lpns: list[int], words: np.ndarray, batch: bool) -> None:
        """``ssd.write`` (one lane) or ``ssd.write_batch``; a failure must
        be one the device is allowed."""
        for lpn, word in zip(lpns, words):
            self._by_payload[_key(word)] = lpn
        self._failed.clear()
        before = self.ssd.ftl.stats.host_writes
        try:
            if batch:
                self.ssd.write_batch(lpns, words)
            else:
                self.ssd.write(lpns[0], words[0])
        except ReadOnlyModeError:
            assert self.read_only, "read-only without a failed write"
        except OutOfSpaceError:
            self._check_out_of_space()
            self.read_only = True
        except ProgramFailedError:
            # The failing bits failed once, then once per retry.
            tries = self._failed.count(self._failed[-1]) if self._failed else 0
            assert tries > self.ssd.ftl.MAX_PROGRAM_RETRIES, (
                f"ProgramFailedError after {tries} failed programs"
            )
            self.read_only = True
        else:
            assert not self.read_only, "a read-only device accepted a write"
            assert self.ssd.ftl.stats.host_writes - before == len(lpns)
        # Each lane counts one host write once it is in place, so the count
        # says which prefix of the batch took effect.
        accepted = self.ssd.ftl.stats.host_writes - before
        self.data.update(zip(lpns[:accepted], words[:accepted]))
        self._by_payload = self._held_payloads()

    def trim(self, lpn: int) -> None:
        try:
            self.ssd.trim(lpn)
        except ReadOnlyModeError:
            assert self.read_only, "read-only without a failed write"
            return
        assert not self.read_only, "a read-only device accepted a trim"
        self.data.pop(lpn, None)
        self._drop(lpn)
        self._by_payload = self._held_payloads()

    def _held_payloads(self) -> dict[bytes, int]:
        return {_key(word): lpn for lpn, word in self.data.items()}

    def scrub(self, budget: int | None) -> None:
        moved = self.ssd.scrub(max_relocations=budget)
        assert budget is None or moved <= budget
        assert not (self.read_only and moved), "a read-only device scrubbed"

    def _check_out_of_space(self) -> None:
        in_service = {
            block: [self.pages[(block, page)] for page in self.block_pages]
            for block in self.blocks
            if block not in self.dead
        }
        free = [b for b, states in in_service.items() if PageState.ERASED in states]
        assert not free, f"OutOfSpaceError with erased pages on blocks {free}"
        garbage_only = [
            block for block, states in in_service.items()
            if PageState.INVALID in states and PageState.PROGRAMMED not in states
        ]
        assert not garbage_only, (
            f"OutOfSpaceError while blocks {garbage_only} hold no live data"
        )

    # -- the lockstep check --------------------------------------------------

    def check(self) -> None:
        """The device and the reference agree after an op."""
        ssd, zeros = self.ssd, np.zeros(self.ssd.logical_page_bits, np.uint8)
        assert ssd.read_only == self.read_only
        assert ssd.ftl.retired_blocks == self.dead
        mapped = {
            lpn for lpn in range(ssd.logical_pages)
            if ssd.ftl.mapping.lookup(lpn) is not None
        }
        assert mapped == set(self.data) == set(self.home)
        for lpn in range(ssd.logical_pages):
            expected = self.data.get(lpn, zeros)
            assert np.array_equal(ssd.read(lpn), expected), f"lpn {lpn}"
        for addr, state in self.pages.items():
            mapped = ssd.ftl.mapping.state(addr)
            if state is PageState.DEAD:
                assert mapped is not PhysicalPageState.LIVE, f"page {addr}"
            else:
                assert mapped is AS_MAPPED[state], (
                    f"page {addr} is {state.name}, the device has {mapped.name}"
                )
        live = [s for s in self.pages.values() if s is PageState.PROGRAMMED]
        assert len(live) == len(self.data)

    def run(self, ops, rng) -> None:
        """Apply hypothesis-drawn ``ops``, checking after each one."""
        for kind, arg in ops:
            if kind in ("write", "batch"):
                lpns = [arg] if kind == "write" else arg
                taken = dict(self._by_payload)
                words = np.array(
                    [self.fresh_payload(rng, lpn, taken) for lpn in lpns]
                )
                self.write(lpns, words, batch=kind == "batch")
            elif kind == "trim":
                self.trim(arg)
            elif kind == "read":
                expected = self.data.get(arg)
                actual = self.ssd.read(arg)
                assert (
                    not actual.any() if expected is None
                    else np.array_equal(actual, expected)
                ), f"lpn {arg}"
            else:
                self.scrub(arg)
            self.check()


def make_ssd(geometry: FlashGeometry, logical: int, **kw) -> SSD:
    usable = (geometry.blocks - BasicFTL.RESERVE_BLOCKS) * geometry.pages_per_block
    ssd = SSD(geometry, utilization=logical / usable, **kw)
    assert ssd.logical_pages == logical
    return ssd


def host_ops(logical: int, count: int, max_batch: int = 1):
    """``count`` ops, most of them writes so that GC runs."""
    lpn = st.integers(0, logical - 1)
    choices = [
        st.tuples(st.just("write"), lpn),
        st.tuples(st.just("write"), lpn),
        st.tuples(st.just("write"), lpn),
        st.tuples(st.just("trim"), lpn),
        st.tuples(st.just("read"), lpn),
        st.tuples(st.just("scrub"), st.none() | st.integers(1, 3)),
    ]
    if max_batch > 1:
        batch = st.lists(lpn, min_size=2, max_size=max_batch)
        choices += [st.tuples(st.just("batch"), batch)] * 3
    return st.lists(st.one_of(choices), min_size=count, max_size=count)


def fault_setups(geometry: FlashGeometry):
    """``SSD`` keywords: no faults, or program-failure rates and up to two
    scheduled kills."""
    profile = st.builds(
        FaultProfile,
        transient_program_failure_rate=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
        permanent_program_failure_rate=st.sampled_from([0.0, 0.002, 0.01]),
    )
    kill = st.builds(
        ScheduledFault,
        kind=st.sampled_from(["kill_block", "kill_page"]),
        block=st.integers(0, geometry.blocks - 1),
        page=st.integers(0, geometry.pages_per_block - 1),
        after_op=st.integers(0, 3000),
    )
    schedule = st.lists(kill, max_size=2).map(FaultSchedule)
    return st.just({}) | st.fixed_dictionaries(
        {"fault_profile": profile, "fault_schedule": schedule}
    )


BASIC = FlashGeometry(blocks=5, pages_per_block=4, page_bits=16,
                      erase_limit=10_000, cell=SLC)
WOM = FlashGeometry(blocks=5, pages_per_block=4, page_bits=96,
                    erase_limit=10_000, max_partial_programs=5)
BATCH = FlashGeometry(blocks=8, pages_per_block=4, page_bits=192,
                      erase_limit=10_000)


class TestBasicFtlModel:
    @given(ops=host_ops(10, 120), faults=fault_setups(BASIC),
           seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_ops_match_dict_semantics(self, ops, faults, seed) -> None:
        ssd = make_ssd(BASIC, 10, wear_leveling=StaticWearLeveling(threshold=6),
                       fault_seed=seed, **faults)
        ssd.ftl.WL_CHECK_INTERVAL = 7  # migrate often on this short run
        ReferenceFTL(ssd).run(ops, np.random.default_rng(seed))


class TestRewritingFtlModel:
    @given(ops=host_ops(8, 80), faults=fault_setups(WOM),
           seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_ops_match_dict_semantics(self, ops, faults, seed) -> None:
        ssd = make_ssd(WOM, 8, scheme="wom", fault_seed=seed, **faults)
        ReferenceFTL(ssd).run(ops, np.random.default_rng(seed))


class TestRewritingFtlBatchModel:
    """``write_batch`` on a small device whose GC runs *inside* batches.

    28 physical pages behind 20 logical ones: a relocating lane regularly
    triggers GC while later lanes of the same batch are still waiting, the
    interleaving on which an encode computed ahead of time goes stale.
    With ``faults``, programs fail transiently and permanently as well: a
    write that raises leaves its page as it was, and the lanes of a batch
    before the failing one stay written.
    """

    LOGICAL = 20

    @pytest.mark.parametrize(
        "faults",
        [None, FaultProfile(transient_program_failure_rate=0.2,
                            permanent_program_failure_rate=0.002)],
        ids=["clean", "faults"],
    )
    @pytest.mark.parametrize(
        "scheme_name,kwargs",
        [("wom", {}), ("mfc-1/2-1bpc", {"constraint_length": 4})],
    )
    @given(ops=host_ops(LOGICAL, 150, max_batch=16), seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_batches_under_gc_match_dict_semantics(
        self, scheme_name: str, kwargs: dict, faults: FaultProfile | None,
        ops, seed: int,
    ) -> None:
        def device(fault_seed: int) -> ReferenceFTL:
            return ReferenceFTL(make_ssd(
                BATCH, self.LOGICAL, scheme=scheme_name,
                fault_profile=faults, fault_seed=fault_seed, **kwargs,
            ))

        reference = device(seed)
        rng = np.random.default_rng(seed)
        reference.run(ops, rng)
        # Small batches fill slowly: go on with full ones until GC has run.
        # A faulted device may die first, by a program failing past the
        # retry budget (``run`` checked the death was allowed): go on with
        # a fresh one.
        for _ in range(100):
            if reference.ssd.ftl.stats.gc_runs:
                break
            if reference.read_only:
                reference = device(int(rng.integers(0, 10_000)))
            lpns = [int(x) for x in rng.integers(0, self.LOGICAL, 16)]
            reference.run([("batch", lpns)], rng)
        assert reference.ssd.ftl.stats.gc_runs > 0


class TestGcAbortLiveness:
    """A reclaim aborted by failed programs must not end GC.

    Transient failures burn a relocation's headroom and abort the reclaim.
    GC then goes on to the next victim, and a block with no live pages
    needs no headroom, so the device dies only with no such block left.
    A GC that gives up at the first abort fails both runs: WOM's write 97
    raises while block 3 holds only invalid pages, and MFC's write 122
    while block 0 does, the relocation block the failures filled.
    """

    @pytest.mark.parametrize(
        "scheme_name,kwargs",
        [("wom", {}), ("mfc-1/2-1bpc", {"constraint_length": 4})],
    )
    def test_aborted_reclaim_moves_on(self, scheme_name, kwargs) -> None:
        ssd = make_ssd(BATCH, 20, scheme=scheme_name,
                       fault_profile=FaultProfile(
                           transient_program_failure_rate=0.3),
                       fault_seed=1, **kwargs)
        reference = ReferenceFTL(ssd)
        rng = np.random.default_rng(1)
        for _ in range(400):
            lpn = int(rng.integers(0, 20))
            word = rng.integers(0, 2, ssd.logical_page_bits, dtype=np.uint8)
            reference.write([lpn], word[None], batch=False)
            reference.check()
            if ssd.read_only:
                break
        assert ssd.read_only  # the run reached the liveness check


class TestModelUntilDeath:
    def test_semantics_hold_until_out_of_space(self) -> None:
        """Even while dying, every accepted write is readable, and the
        device dies only once the reference agrees capacity is gone."""
        ssd = make_ssd(
            FlashGeometry(blocks=4, pages_per_block=4, page_bits=16,
                          erase_limit=5, cell=SLC),
            6,
        )
        reference = ReferenceFTL(ssd)
        rng = np.random.default_rng(0)
        for _ in range(100_000):
            lpn = int(rng.integers(0, 6))
            reference.run([("write", lpn)], rng)
            if ssd.read_only:
                break
        assert ssd.read_only and reference.dead
