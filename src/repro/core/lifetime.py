"""Page lifetime simulation — the paper's methodology (Section VII).

A single flash page is repeatedly programmed with pseudo-random datawords
(the coset scrambling makes results input-independent, so random data is
representative).  The number of writes accepted before the scheme demands an
erase, averaged over erase cycles, is the *lifetime gain* relative to
uncoded flash (which accepts exactly one).

Two drivers implement the methodology:

* :class:`LifetimeSimulator` streams datawords into one page — the paper's
  literal procedure, kept as the scalar reference;
* :class:`BatchLifetimeSimulator` runs ``B`` independent pages in lockstep
  through the schemes' batched write path.  Each lane owns its own seeded
  generator, and a lane whose page demands an erase is recycled in place,
  so lane ``i`` of a batch reproduces the scalar simulation with lane
  ``i``'s seed bit for bit regardless of the batch size.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.coding.bitops import RandomBits
from repro.core.analysis import UpdateTrace
from repro.core.scheme import PageCodeScheme
from repro.errors import ConfigurationError, DecodingError, UnwritableError

__all__ = [
    "LifetimeSimulator",
    "LifetimeResult",
    "BatchLifetimeSimulator",
]


@dataclass(frozen=True)
class LifetimeResult:
    """Outcome of a lifetime simulation over one page or ``lanes`` pages.

    ``writes_per_cycle_by_lane[i]`` holds lane ``i``'s per-cycle write
    counts (a scalar run is one lane), and ``writes_per_cycle`` pools them
    lane-major.  The trace aggregates every lane (per-update and at-erase
    statistics are averages, so pooling lanes is exact).
    ``lifetime_gain`` is the average number of writes per erase cycle;
    ``aggregate_gain`` multiplies it by the scheme's rate (the paper's key
    metric — the area of a Fig. 1 rectangle).
    """

    scheme_name: str
    rate: float
    writes_per_cycle_by_lane: tuple[tuple[int, ...], ...]
    trace: UpdateTrace = field(repr=False)

    @property
    def lanes(self) -> int:
        return len(self.writes_per_cycle_by_lane)

    @property
    def writes_per_cycle(self) -> tuple[int, ...]:
        """All cycles, lane-major (lane 0's cycles first)."""
        return tuple(
            count for lane in self.writes_per_cycle_by_lane for count in lane
        )

    @property
    def lifetime_gain(self) -> float:
        return float(np.mean(self.writes_per_cycle))

    @property
    def lifetime_std(self) -> float:
        return float(np.std(self.writes_per_cycle))

    @property
    def aggregate_gain(self) -> float:
        return self.lifetime_gain * self.rate

    def __str__(self) -> str:
        over = f" over {self.lanes} lanes" if self.lanes > 1 else ""
        return (
            f"{self.scheme_name}: rate {self.rate:.4f}, lifetime gain "
            f"{self.lifetime_gain:.2f}{over}, aggregate gain "
            f"{self.aggregate_gain:.2f}"
        )


def _as_rng(seed) -> np.random.Generator:
    """Accept an int seed or an already-built Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _inject_defects(varray, rng: np.random.Generator, state, fraction):
    """Pin a random subset of v-cells at the saturated level."""
    stuck = rng.random(varray.num_cells) < fraction
    targets = varray.levels(state)
    targets[stuck] = varray.spec.max_level
    return varray.program_levels(state, targets)


class _PageSimulator:
    """What both simulators bind at construction: the scheme, its v-cell
    array (None when the scheme is not cell-based), the histogram level
    count and the checked defect fraction."""

    def __init__(
        self,
        scheme: PageCodeScheme,
        verify_reads: bool,
        num_levels: int | None,
        defect_fraction: float,
    ) -> None:
        varray = scheme.code.varray
        if not 0 <= defect_fraction < 1:
            raise ConfigurationError("defect_fraction must lie in [0, 1)")
        if defect_fraction and varray is None:
            raise ConfigurationError(
                f"{scheme.name} is not cell-based; defects unsupported"
            )
        if num_levels is None:
            num_levels = varray.spec.levels if varray is not None else 4
        self.scheme = scheme
        self.verify_reads = verify_reads
        self.num_levels = num_levels
        self.defect_fraction = defect_fraction
        self._varray = varray

    def _fresh_state(self, rng: np.random.Generator):
        """An erased page, with this run's defects pinned from ``rng``."""
        state = self.scheme.fresh_state()
        if self.defect_fraction:
            state = _inject_defects(self._varray, rng, state, self.defect_fraction)
        return state


class LifetimeSimulator(_PageSimulator):
    """Streams random datawords into one simulated page until it wears out.

    Parameters
    ----------
    scheme:
        The rewriting scheme under test.
    seed:
        RNG seed, or an injected :class:`numpy.random.Generator` (so batched
        and scalar runs can share RNG streams); simulations are fully
        deterministic given a seed.
    verify_reads:
        When True, every write is read back and compared (slower; used by
        integration tests to prove end-to-end correctness during the whole
        life of the page).
    num_levels:
        Cell level count for histogram bucketing; inferred from the scheme's
        code when not given.
    defect_fraction:
        Fraction of v-cells stuck at the top level from the start of every
        erase cycle (manufacturing defects / early wearout — Grupp et al.,
        cited in the paper's related work).  Only supported for cell-based
        schemes; codes that can route around saturated cells (MFCs) degrade
        gracefully, codes that cannot collapse.
    """

    def __init__(
        self,
        scheme: PageCodeScheme,
        seed: int | np.random.Generator = 0,
        verify_reads: bool = False,
        num_levels: int | None = None,
        defect_fraction: float = 0.0,
    ) -> None:
        super().__init__(scheme, verify_reads, num_levels, defect_fraction)
        self.rng = _as_rng(seed)

    def run(
        self, cycles: int = 5, max_writes_per_cycle: int = 100_000
    ) -> LifetimeResult:
        """Simulate ``cycles`` erase cycles; return gains and traces."""
        if cycles < 1:
            raise ConfigurationError("need at least one erase cycle")
        writes_per_cycle: list[int] = []
        trace = UpdateTrace()
        with RandomBits(self.rng) as draw:
            for _ in range(cycles):
                writes_per_cycle.append(
                    self._run_cycle(draw, trace, max_writes_per_cycle)
                )
        return LifetimeResult(
            scheme_name=self.scheme.name,
            rate=self.scheme.rate,
            writes_per_cycle_by_lane=(tuple(writes_per_cycle),),
            trace=trace,
        )

    def _run_cycle(self, draw: RandomBits, trace: UpdateTrace, max_writes: int) -> int:
        scheme = self.scheme
        state = self._fresh_state(self.rng)
        writes = 0
        levels = scheme.cell_levels(state)
        while writes < max_writes:
            dataword = draw(scheme.dataword_bits)
            try:
                state = scheme.write(state, dataword)
            except UnwritableError:
                break
            writes += 1
            if self.verify_reads:
                stored = scheme.read(state)
                if not np.array_equal(stored, dataword):
                    raise DecodingError(
                        f"{scheme.name}: read-back mismatch on update {writes}"
                    )
            if levels is not None:
                written = scheme.last_write_levels
                new_levels = (
                    scheme.cell_levels(state) if written is None else written[0]
                )
                trace.record_update(writes, levels, new_levels)
                levels = new_levels
        else:
            raise ConfigurationError(
                f"{scheme.name} accepted {max_writes} writes without needing "
                "an erase; raise max_writes_per_cycle if this is intended"
            )
        if levels is not None:
            trace.record_erase(levels, self.num_levels)
        return writes


class BatchLifetimeSimulator(_PageSimulator):
    """Runs ``lanes`` independent page lifetimes in lockstep.

    Every iteration draws one dataword per active lane (from that lane's own
    generator) and pushes the whole batch through the scheme's
    ``write_batch``.  Lanes whose page demands an erase are recycled in
    place: the cycle's write count is recorded, the lane gets a fresh
    (defect-injected) state, and the batch keeps going until every lane has
    completed ``cycles`` erase cycles.  Per-lane seeding makes lane ``i``
    independent of the batch size: it reproduces
    ``LifetimeSimulator(scheme, seed=<lane i's seed>)`` bit for bit.

    Parameters
    ----------
    scheme:
        The rewriting scheme under test.
    lanes:
        Number of concurrent simulated pages (ignored when ``seeds`` is
        given).
    seed:
        Base seed; lane ``i`` uses ``seed + i`` unless ``seeds`` overrides.
    seeds:
        Optional explicit per-lane seeds — ints or injected
        :class:`numpy.random.Generator` instances, one per lane.
    collect_trace:
        Record the Fig. 15/16 instrumentation (per-update increment
        fractions and at-erase level histograms).  Disable for pure
        throughput runs.
    verify_reads / num_levels / defect_fraction:
        As in :class:`LifetimeSimulator`.
    """

    def __init__(
        self,
        scheme: PageCodeScheme,
        lanes: int = 1,
        seed: int = 0,
        seeds: Sequence[int | np.random.Generator] | None = None,
        verify_reads: bool = False,
        num_levels: int | None = None,
        defect_fraction: float = 0.0,
        collect_trace: bool = True,
    ) -> None:
        if seeds is None:
            seeds = [seed + lane for lane in range(lanes)]
        self._rngs = [_as_rng(lane_seed) for lane_seed in seeds]
        self.lanes = len(self._rngs)
        if self.lanes < 1:
            raise ConfigurationError("need at least one lane")
        super().__init__(scheme, verify_reads, num_levels, defect_fraction)
        self.collect_trace = collect_trace

    def _fresh_lane_state(self, lane: int):
        return self._fresh_state(self._rngs[lane])

    def run(
        self, cycles: int = 5, max_writes_per_cycle: int = 100_000
    ) -> LifetimeResult:
        """Simulate ``cycles`` erase cycles on every lane."""
        if cycles < 1:
            raise ConfigurationError("need at least one erase cycle")
        with ExitStack() as stack:
            draws = [stack.enter_context(RandomBits(rng)) for rng in self._rngs]
            return self._run_lanes(draws, cycles, max_writes_per_cycle)

    def _run_lanes(
        self, draws: list[RandomBits], cycles: int, max_writes_per_cycle: int
    ) -> LifetimeResult:
        scheme = self.scheme
        lanes = self.lanes
        states = scheme.fresh_states(lanes)
        if self.defect_fraction:
            for lane in range(lanes):
                states[lane] = self._fresh_lane_state(lane)
        writes = np.zeros(lanes, dtype=np.int64)
        cycles_done = np.zeros(lanes, dtype=np.int64)
        counts: list[list[int]] = [[] for _ in range(lanes)]
        active = np.ones(lanes, dtype=bool)
        trace = UpdateTrace()
        levels = (
            scheme.cell_levels_batch(states) if self.collect_trace else None
        )
        while active.any():
            idx = np.flatnonzero(active)
            datawords = np.stack(
                [draws[lane](scheme.dataword_bits) for lane in idx]
            )
            new_states, writable = scheme.write_batch(states[idx], datawords)
            ok_lanes = idx[writable]
            states[ok_lanes] = new_states[writable]  # commit successful lanes
            writes[ok_lanes] += 1
            if (writes[ok_lanes] >= max_writes_per_cycle).any():
                raise ConfigurationError(
                    f"{scheme.name} accepted {max_writes_per_cycle} writes "
                    "without needing an erase; raise max_writes_per_cycle if "
                    "this is intended"
                )
            if self.verify_reads and len(ok_lanes):
                stored = scheme.read_batch(states[ok_lanes])
                mismatches = np.flatnonzero(
                    (stored != datawords[writable]).any(axis=1)
                )
                if len(mismatches):
                    lane = int(ok_lanes[mismatches[0]])
                    raise DecodingError(
                        f"{scheme.name}: read-back mismatch on lane {lane}, "
                        f"update {int(writes[lane])}"
                    )
            if levels is not None and len(ok_lanes):
                written = scheme.last_write_levels
                if written is not None:
                    new_levels = written[writable]
                else:
                    new_levels = scheme.cell_levels_batch(states[ok_lanes])
                for j, lane in enumerate(ok_lanes):
                    trace.record_update(
                        int(writes[lane]), levels[lane], new_levels[j]
                    )
                    levels[lane] = new_levels[j]
            # Recycle exhausted lanes in place.
            for lane in idx[~writable]:
                lane = int(lane)
                counts[lane].append(int(writes[lane]))
                writes[lane] = 0
                cycles_done[lane] += 1
                if levels is not None:
                    trace.record_erase(levels[lane], self.num_levels)
                if cycles_done[lane] >= cycles:
                    active[lane] = False
                    continue
                fresh = self._fresh_lane_state(lane)
                states[lane] = fresh
                if levels is not None:
                    levels[lane] = scheme.cell_levels(fresh)
        return LifetimeResult(
            scheme_name=scheme.name,
            rate=scheme.rate,
            writes_per_cycle_by_lane=tuple(
                tuple(lane_counts) for lane_counts in counts
            ),
            trace=trace,
        )
