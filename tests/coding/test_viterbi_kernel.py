"""Bit-identity of the Viterbi fast path against the historical kernel.

``_reference_search_batch`` is a faithful port of the pre-optimization
add-compare-select loop (per-step gather, ``inc1 < inc0`` tie-break, argmin
end state).  The production search runs through whichever kernel backend is
selected, numpy on float32 metrics where exact and native on uint8 or int16
ones, redone wider where they could overflow (the first half of this file
takes the default, so
``REPRO_VITERBI_BACKEND`` steers it; the second half names every available
backend) — every case asserts byte-identical
codewords, total costs, and writability masks across all MFC rates, and
across fractional metrics and relabelled trellises that no scheme builds.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import platform

import numpy as np
import pytest

from repro.coding import kernels
from repro.coding.convolutional import Trellis
from repro.coding.coset import ConvolutionalCosetCode
from repro.coding.cost import make_codebook, methuselah_metric
from repro.coding.registry import get_code, list_codes
from repro.coding.viterbi import _EXPANDED_BYTES, CosetViterbi
from repro.errors import ConfigurationError
from repro.core import LifetimeSimulator
from repro.core.mfc import MFC_VARIANTS, MfcScheme


def _reference_search_batch(viterbi, reps, levels):
    """The PR 2 kernel, verbatim semantics: radix-2 float64 ACS + argmin."""
    trellis = viterbi.trellis
    lanes, steps = reps.shape
    step_costs = viterbi.step_cost_table(levels)  # (B, steps, 2**m)
    prev_state = trellis.prev_state
    prev_input = trellis.prev_input
    output_values = trellis.output_values
    xor_gather = viterbi._xor_gather
    lane_index = np.arange(lanes)
    lane_grid = lane_index[:, None, None]
    path = np.zeros((lanes, trellis.num_states))
    backptr = np.empty((lanes, steps, trellis.num_states), dtype=np.uint8)
    for t in range(steps):
        gather = xor_gather[reps[:, t]]  # (B, S, 2)
        branch = step_costs[:, t][lane_grid, gather]
        incoming = path[:, prev_state] + branch
        lower = incoming[:, :, 1] < incoming[:, :, 0]
        path = np.where(lower, incoming[:, :, 1], incoming[:, :, 0])
        backptr[:, t] = lower
    end_state = np.argmin(path, axis=1)
    total_costs = path[lane_index, end_state]
    writable = np.isfinite(total_costs)
    codeword_values = np.empty((lanes, steps), dtype=np.int64)
    state = end_state.astype(np.int64)
    for t in range(steps - 1, -1, -1):
        choice = backptr[lane_index, t, state]
        source = prev_state[state, choice].astype(np.int64)
        u = prev_input[state, choice]
        codeword_values[:, t] = output_values[source, u] ^ reps[:, t]
        state = source
    return codeword_values, total_costs, writable


def _make_code(variant: str, constraint_length: int, vcell_levels: int = 4):
    denominator, bits_per_cell = MFC_VARIANTS[variant]
    return ConvolutionalCosetCode(
        page_bits=1024,
        rate_denominator=denominator,
        constraint_length=constraint_length,
        bits_per_cell=bits_per_cell,
        vcell_levels=vcell_levels,
    )


def _random_case(viterbi, lanes, steps, seed, max_level):
    rng = np.random.default_rng(seed)
    reps = rng.integers(0, viterbi.num_values, (lanes, steps))
    levels = rng.integers(
        0, max_level + 1, (lanes, steps, viterbi.cells_per_step)
    )
    return reps, levels


def _assert_bit_identical(viterbi, reps, levels):
    ref_values, ref_costs, ref_writable = _reference_search_batch(
        viterbi, reps, levels
    )
    result = viterbi.search_batch(reps, levels)
    assert np.array_equal(result.writable, ref_writable)
    assert np.array_equal(result.total_costs, ref_costs)
    # Unwritable lanes carry no meaningful codeword; compare writable ones.
    assert np.array_equal(
        result.codeword_values[ref_writable], ref_values[ref_writable]
    )


@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
@pytest.mark.parametrize("constraint_length", [3, 5])
def test_all_mfc_rates_bit_identical(variant, constraint_length) -> None:
    code = _make_code(variant, constraint_length)
    viterbi = code.viterbi
    num_levels = viterbi.codebook.num_levels
    for seed, steps in ((0, 12), (1, 11), (2, 17)):  # odd steps hit the tail
        reps, levels = _random_case(viterbi, 5, steps, seed, num_levels - 2)
        _assert_bit_identical(viterbi, reps, levels)


@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_saturated_pages_bit_identical(variant) -> None:
    """Near-saturation levels (inf branches, unwritable lanes) still agree."""
    code = _make_code(variant, 4)
    viterbi = code.viterbi
    num_levels = viterbi.codebook.num_levels
    reps, levels = _random_case(viterbi, 8, 13, 42, num_levels - 1)
    _assert_bit_identical(viterbi, reps, levels)


def test_8_level_vcells_bit_identical() -> None:
    code = _make_code("mfc-1/2-1bpc", 4, vcell_levels=8)
    viterbi = code.viterbi
    reps, levels = _random_case(viterbi, 4, 15, 3, 6)
    _assert_bit_identical(viterbi, reps, levels)


def test_float32_metric_bound_falls_back_to_float64() -> None:
    """numpy's dtype switch: cost sums past the float32-exact bound run its
    recursion in float64, and the result does not drift."""
    viterbi = _with_backend(_make_code("mfc-1/2-1bpc", 3), "numpy")
    reps, levels = _random_case(viterbi, 2, 9, 5, 2)
    fast = viterbi.search_batch(reps, levels)
    viterbi._max_step_cost = float(2**24)  # force the float64 branch
    wide = viterbi.search_batch(reps, levels)
    assert np.array_equal(fast.codeword_values, wide.codeword_values)
    assert np.array_equal(fast.total_costs, wide.total_costs)


# ---------------------------------------------------------------------------
# Pluggable kernel backends: every available backend's search must be
# bit-identical to the reference on everything it returns.
# ---------------------------------------------------------------------------

BACKENDS = kernels.available_backends()


def _with_backend(code, backend: str) -> CosetViterbi:
    viterbi = CosetViterbi(
        code.viterbi.trellis, code.viterbi.codebook, backend=backend
    )
    assert viterbi.backend.name == backend
    return viterbi


def _cost_paths(viterbi: CosetViterbi):
    """The searcher, then again with its expanded branch-cost table withheld:
    the native kernel's two cost paths, uint8 over that table and int16
    gathering from the fused one (numpy has the one)."""
    yield viterbi
    if viterbi.backend.name == "native" and viterbi._expanded is not None:
        yield _with_expanded_table(viterbi, None)


def _with_expanded_table(viterbi: CosetViterbi, table) -> CosetViterbi:
    """A copy of a native searcher whose kernel reads ``table`` (None: NULL)
    as its expanded branch-cost table: its search block bound again."""
    changed = copy.copy(viterbi)
    changed._expanded = table
    changed._bind_search_tables()
    return changed


def _bound_address(viterbi: CosetViterbi, name: str) -> int:
    """The address the searcher's block holds for its table ``name``."""
    names = [field for field, _dtype in kernels.BLOCK_LAYOUTS["search"]]
    return int(viterbi._search_block.fields[names.index(name)])


needs_native = pytest.mark.skipif(
    "native" not in BACKENDS, reason="no C compiler here"
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_every_available_backend_bit_identical(backend, variant) -> None:
    for constraint_length in (3, 5, 7):
        viterbi = _with_backend(_make_code(variant, constraint_length), backend)
        num_levels = viterbi.codebook.num_levels
        for lanes in (1, 5):
            for seed, steps in ((4, 12), (5, 13)):  # even + odd-tail trellises
                reps, levels = _random_case(
                    viterbi, lanes, steps, seed, num_levels - 2
                )
                _assert_bit_identical(viterbi, reps, levels)


@needs_native
@pytest.mark.parametrize(
    "variant, constraint_length",
    [
        (variant, constraint_length)
        for variant in sorted(MFC_VARIANTS)
        for constraint_length in (3, 5, 7, 9)  # 9: the rate-1/2 codes only
        if (MFC_VARIANTS[variant][0], constraint_length) in list_codes()
    ],
)
def test_native_cost_paths_agree_with_numpy(variant, constraint_length) -> None:
    """Expanded table, per-step gather and numpy: one result, saturated
    cells and the degenerate step counts included."""
    code = _make_code(variant, constraint_length)
    native = _with_backend(code, "native")
    reference = _with_backend(code, "numpy")
    num_levels = native.codebook.num_levels
    for lanes in (1, 5):
        for seed, steps in ((0, 0), (1, 1), (4, 12), (5, 13)):
            reps, levels = _random_case(
                native, lanes, steps, seed, num_levels - 1
            )
            expected = reference.search_batch(reps, levels)
            for viterbi in _cost_paths(native):
                result = viterbi.search_batch(reps, levels)
                assert np.array_equal(result.writable, expected.writable)
                assert np.array_equal(result.total_costs, expected.total_costs)
                assert np.array_equal(
                    result.codeword_values[expected.writable],
                    expected.codeword_values[expected.writable],
                )


@needs_native
def test_native_search_reads_the_expanded_table_it_is_bound() -> None:
    """The kernel takes its uint8 expanded table from ``_search_block``
    alone: a zeroed one makes every branch free, and withholding it sends
    every lane to int16 and every step through the per-step gather, which
    still gives numpy's result."""
    code = _make_code("mfc-1/2-1bpc", 5)
    native = _with_backend(code, "native")
    expanded = native._search_block.tables["expanded"]
    assert expanded is native._expanded and expanded.dtype == np.uint8
    assert _bound_address(native, "expanded") == expanded.ctypes.data
    reps, levels = _random_case(native, 3, 13, 6, 3)
    expected = _with_backend(code, "numpy").search_batch(reps, levels)
    assert (expected.total_costs > 0).any()
    free = _with_expanded_table(native, np.zeros_like(expanded))
    assert (free.search_batch(reps, levels).total_costs == 0).all()
    gathering = _with_expanded_table(native, None)
    assert gathering._search_block.tables["expanded"] is None
    assert _bound_address(gathering, "expanded") == 0
    result = gathering.search_batch(reps, levels)
    assert result.total_costs.tobytes() == expected.total_costs.tobytes()
    assert result.codeword_values.tobytes() == expected.codeword_values.tobytes()


@needs_native
def test_native_serves_a_searcher_too_large_to_expand() -> None:
    """Rate 1/5 at K=7 on 8-level cells would expand to 128 MiB, past the
    cap (and its step costs leave uint8 no headroom): no table, every lane
    runs int16, every step gathers its costs from the fused table, and the
    result is numpy's byte for byte."""
    code = _make_code("mfc-4/5", 7, vcell_levels=8)
    viterbi = _with_backend(code, "native")
    assert viterbi._expanded is None and viterbi._limit >= 0
    assert viterbi._search_block.tables["expanded"] is None
    assert _bound_address(viterbi, "expanded") == 0
    for lanes, steps in ((1, 0), (1, 9), (1, 12), (5, 13), (3, 70)):
        reps, levels = _random_case(viterbi, lanes, steps, steps, 7)
        _assert_bit_identical(viterbi, reps, levels)
        _assert_native_is_numpy(code, reps, levels)


@needs_native
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_every_table1_code_at_k7_expands_its_costs(variant) -> None:
    """Each Table I MFC code at K=7 on a 4 KB page hands the native search
    its uint8 expanded table, the one the AVX2 body reads: mfc-4/5's is the
    largest, 4**5 level rows x 32 chunks x 128 bytes = 4 MiB, the cap."""
    scheme = MfcScheme(variant, 32768, constraint_length=7)
    viterbi = _with_backend(scheme.code, "native")
    rows = viterbi.codebook.num_levels**viterbi.cells_per_step
    assert viterbi._expanded is not None and viterbi._limit8 >= 0
    assert viterbi._expanded.shape == (rows, viterbi.num_values, 128)
    assert viterbi._expanded.dtype == np.uint8
    assert viterbi._expanded.nbytes <= _EXPANDED_BYTES == 4 << 20
    assert _bound_address(viterbi, "expanded") != 0


# ---------------------------------------------------------------------------
# The native search runs uint8 path metrics over the expanded table, int16 ones
# gathering from the fused table where there is none, and redoes a lane one
# width wider when they could overflow: uint8 in int16, int16 in float64.  It
# is called directly here, with the limits it is handed chosen, so each test
# knows which width answered: its status is the number of lanes it redid, and
# a limit below zero skips its width for every lane.
# ---------------------------------------------------------------------------


@functools.cache
def _native_library():
    return kernels._bind(kernels._load_native())


def _native_search(
    viterbi, reps, levels, limit=None, expanded=None, stride=None, limit8=None
):
    """``(status, codewords, costs, writable)`` of one ``search`` call over
    the searcher's tables, with its own limits (int16's, uint8's), expanded
    table (None: lanes start in int16) and lane stride (one lane's levels by
    default)."""
    lanes, steps = reps.shape
    block = kernels.ParameterBlock(
        "search", states=viterbi.trellis.num_states, cells=viterbi.cells_per_step,
        levels=viterbi._num_levels, values=viterbi.num_values,
        limit8=viterbi._limit8 if limit8 is None else limit8,
        limit=viterbi._limit if limit is None else limit, order=viterbi._order,
        costs16=viterbi._fused_flat[np.dtype(np.int16)], expanded=expanded,
        costs64=viterbi._fused_flat[np.dtype(np.float64)],
        out_values=viterbi._out_values,
    )
    out = np.empty(lanes * (steps + 2), dtype=np.int64)
    reps = np.ascontiguousarray(reps, dtype=np.int64)
    levels = np.ascontiguousarray(levels, dtype=np.int64)
    status = _native_library().search(
        block.pointer, lanes, steps,
        steps * viterbi.cells_per_step if stride is None else stride,
        reps.ctypes.data, levels.ctypes.data, out.ctypes.data,
    )
    size = lanes * steps
    return (
        status, out[:size].reshape(lanes, steps),
        out[size : size + lanes].view(np.float64), out[size + lanes :].view(bool)[:lanes],
    )


def _lanes_past(viterbi, reps, levels, every, limit) -> int:
    """How many lanes a width whose limit is ``limit`` redoes: those whose
    finite float64 path metrics spread more than that at one of its
    renormalisations, every ``every`` steps."""
    trellis = viterbi.trellis
    step_costs = viterbi.step_cost_table(levels)
    lane_grid = np.arange(len(reps))[:, None, None]
    path = np.zeros((len(reps), trellis.num_states))
    past = np.zeros(len(reps), dtype=bool)
    for t in range(reps.shape[1]):
        if t and t % every == 0:
            finite = np.isfinite(path)
            least = np.where(finite, path, np.inf).min(axis=1)
            most = np.where(finite, path, -np.inf).max(axis=1)
            past |= finite.any(axis=1) & (most - least > limit)
        branch = step_costs[:, t][lane_grid, viterbi._xor_gather[reps[:, t]]]
        path = (path[:, trellis.prev_state] + branch).min(axis=2)
    return int(past.sum())


def _assert_narrow_is_float64(viterbi, reps, levels) -> None:
    """uint8 over the expanded table and int16 gathering give the float64
    search's codewords, costs and writability byte for byte, redoing just
    the lanes whose metrics spread past their limit, and so does a uint8
    search whose every lane is redone in int16.  Unwritable lanes count too:
    their walk from state 0 crosses the ties between infeasible branches,
    which the narrow widths must break as float64's infs do."""
    lanes = len(reps)
    status, *wide = _native_search(viterbi, reps, levels, limit=-1)
    assert status == lanes
    # (expanded table, uint8 limit, lanes redone)
    runs = [(None, None, _lanes_past(
        viterbi, reps, levels, kernels.INT16_RENORM, viterbi._limit
    ))]
    if viterbi._expanded is not None:
        runs += [
            (viterbi._expanded, None, _lanes_past(
                viterbi, reps, levels, kernels.UINT8_RENORM, viterbi._limit8
            )),
            (viterbi._expanded, -1, lanes),
        ]
    for expanded, limit8, redone in runs:
        status, *narrow = _native_search(
            viterbi, reps, levels, expanded=expanded, limit8=limit8
        )
        assert status == redone
        for got, expected in zip(narrow, wide):
            assert got.tobytes() == expected.tobytes()


def _page_lifetime(code, lanes, seed):
    """Every search a batch of pages asks for, write after write of random
    datawords, until no lane is writable.  The middle lane's page starts
    with every cell at the top level, so each batch has an unwritable lane
    between writable ones, and its paths die part way along the page."""
    rng = np.random.default_rng(seed)
    searches = []
    search_batch = code.viterbi.search_batch

    def recording(reps, levels):
        # A copy: the page program writes the new levels over these.
        searches.append((np.array(reps), np.array(levels)))
        return search_batch(reps, levels)

    code.viterbi.search_batch = recording
    pages = np.zeros((lanes, code.page_bits), dtype=np.uint8)
    pages[lanes // 2] = 1
    writable = np.ones(lanes, dtype=bool)
    while writable.any():
        data = rng.integers(0, 2, (lanes, code.dataword_bits), dtype=np.uint8)
        pages, writable = code.encode_batch(data, pages)
        assert not writable[lanes // 2]
    return searches


@needs_native
@pytest.mark.parametrize(
    "variant, constraint_length",
    [
        (variant, constraint_length)
        for variant in sorted(MFC_VARIANTS)
        for constraint_length in (3, 5, 7, 9)  # 9: the rate-1/2 codes only
        if (MFC_VARIANTS[variant][0], constraint_length) in list_codes()
    ],
)
def test_narrow_forward_equals_float64_on_every_state(
    variant, constraint_length
) -> None:
    code = _make_code(variant, constraint_length)
    native = _with_backend(code, "native")
    assert native._expanded is not None  # lanes start in uint8
    code.viterbi = native
    searches = _page_lifetime(code, 5, constraint_length)
    assert len(searches) > 2
    for reps, levels in searches:
        _assert_narrow_is_float64(native, reps, levels)
    # Either side of both renormalisation periods, saturated cells included.
    num_levels = native.codebook.num_levels
    for steps in (7, 8, 9, 15, 16, 17, 31, 32, 33):
        reps, levels = _random_case(native, 5, steps, steps, num_levels - 1)
        _assert_narrow_is_float64(native, reps, levels)


#: Which limits a forced overflow zeroes (any finite spread after a
#: renormalisation then overflows), whether the lanes start on the expanded
#: table (in uint8) or without it (in int16), and the width that answers.
FORCED_OVERFLOWS = {
    "uint8-redone-in-int16": (("_limit8",), True, "int16"),
    "uint8-past-both-limits": (("_limit8", "_limit"), True, "float64"),
    "int16-redone-in-float64": (("_limit",), False, "float64"),
}


@needs_native
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
@pytest.mark.parametrize("case", sorted(FORCED_OVERFLOWS))
def test_forced_overflow_redoes_the_lane_wider(variant, case) -> None:
    """Each lane is counted redone once, however many widths it passed, and
    comes back as numpy and the unforced search make it.  A zeroed float64
    table frees every branch where float64 answers, and nowhere else."""
    code = _make_code(variant, 5)
    native = _with_backend(code, "native")
    reference = _with_backend(code, "numpy")
    reps, levels = _random_case(native, 6, 40, 7, 2)
    unforced = native.search_batch(reps, levels)
    assert (unforced.total_costs > 0).all()
    zeroed, expanded, answers = FORCED_OVERFLOWS[case]
    if not expanded:
        native = _with_expanded_table(native, None)
    for name in zeroed:
        setattr(native, name, 0)
    native._bind_search_tables()
    for lane in range(len(reps)):
        status, *_result = _native_search(
            native, reps[lane : lane + 1], levels[lane : lane + 1],
            expanded=native._search_block.tables["expanded"],
        )
        assert status == 1
    forced = native.search_batch(reps, levels)
    for expected in (reference.search_batch(reps, levels), unforced):
        for name in ("codeword_values", "total_costs", "writable"):
            assert getattr(forced, name).tobytes() == getattr(expected, name).tobytes()
    free64 = copy.copy(native)
    free64._fused_flat = {
        **native._fused_flat,
        np.dtype(np.float64): np.zeros_like(native._fused_flat[np.dtype(np.float64)]),
    }
    status, _codeword, total, _writable = _native_search(
        free64, reps, levels, expanded=native._search_block.tables["expanded"]
    )
    assert status == len(reps)
    if answers == "float64":
        assert (total == 0).all()
    else:
        assert total.tobytes() == unforced.total_costs.tobytes()


@needs_native
@pytest.mark.parametrize("denominator", [2, 5])
def test_costs_too_large_for_int16_route_to_float64(denominator) -> None:
    """An integral metric whose step costs would leave no int16 headroom
    builds no int16 table and searches in float64 from the start."""

    def heavy(level: int, target: int, num_levels: int) -> float:
        return 4000 * methuselah_metric(level, target, num_levels)

    trellis = get_code(denominator, 5).build_trellis()
    codebook = make_codebook(1, 4, metric=heavy)
    native = CosetViterbi(trellis, codebook, backend="native")
    reference = CosetViterbi(trellis, codebook, backend="numpy")
    assert native.backend.name == "native"
    assert native._limit < 0 and native._expanded is None
    assert np.dtype(np.int16) not in native._fused_flat
    for lanes, steps in ((1, 20), (5, 33)):
        reps, levels = _random_case(native, lanes, steps, steps, 3)
        expected = reference.search_batch(reps, levels)
        result = native.search_batch(reps, levels)
        assert np.array_equal(result.codeword_values, expected.codeword_values)
        assert np.array_equal(result.total_costs, expected.total_costs)
        _assert_bit_identical(native, reps, levels)


def _assert_native_is_numpy(code, reps, levels) -> np.ndarray:
    """Native, on both cost paths, returns numpy's codewords (unwritable
    lanes' included), costs and writability byte for byte; returns the
    writability."""
    expected = _with_backend(code, "numpy").search_batch(reps, levels)
    for viterbi in _cost_paths(_with_backend(code, "native")):
        got = viterbi.search_batch(reps, levels)
        for name in ("codeword_values", "total_costs", "writable"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
    return expected.writable


@needs_native
@pytest.mark.parametrize("constraint_length", [3, 9])
def test_packed_survivors_at_both_state_edges(constraint_length) -> None:
    """4 states keep half a byte of survivors a step, 256 keep 32 bytes: step
    counts either side of the 8 steps a survivor byte holds, saturated cells
    included."""
    code = _make_code("mfc-1/2-1bpc", constraint_length)
    assert code.viterbi.trellis.num_states == 2 ** (constraint_length - 1)
    for steps in (0, 1, 7, 8, 9, 15, 16, 17, 64, 65):
        for lanes in (1, 3):
            reps, levels = _random_case(code.viterbi, lanes, steps, steps + lanes, 3)
            _assert_native_is_numpy(code, reps, levels)


@needs_native
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_native_batch_of_writable_and_unwritable_lanes(variant) -> None:
    """Every search of a page lifetime, each batch holding an unwritable lane
    between writable ones."""
    code = _make_code(variant, 5)
    code.viterbi = _with_backend(code, "numpy")
    searches = _page_lifetime(code, 5, 3)
    mixed = 0
    for reps, levels in searches:
        writable = _assert_native_is_numpy(code, reps, levels)
        mixed += bool(writable.any() and not writable.all())
    assert mixed > 1


@needs_native
@pytest.mark.parametrize("constraint_length", [5, 7])  # 7: the AVX2 body
@pytest.mark.parametrize("width", ["uint8", "int16"])
def test_one_lane_widens_next_to_one_that_does_not(constraint_length, width) -> None:
    """One call, a limit of one width between the two lanes' spreads: the
    wide lane is redone wider (uint8 in int16, int16 in float64), the narrow
    one is not, and both match numpy."""
    code = _make_code("mfc-1/2-1bpc", constraint_length)
    native = _with_backend(code, "native")
    reps, levels = _random_case(native, 2, 40, 9, 2)
    levels[0] = 0  # lane 0: the cheapest cells, the narrowest spread
    expanded = native._expanded if width == "uint8" else None

    def run(lanes, limit):
        limits = {"limit8" if width == "uint8" else "limit": limit}
        return _native_search(
            native, reps[lanes], levels[lanes], expanded=expanded, **limits
        )

    def least_limit(lane):
        """The least limit at which the lane stays in the width throughout."""
        limit = 0
        while run(slice(lane, lane + 1), limit)[0]:
            limit += 1
        return limit

    narrow = least_limit(0)
    assert narrow < least_limit(1)
    status, *got = run(slice(None), narrow)
    assert status == 1
    expected = _with_backend(code, "numpy").search_batch(reps, levels)
    for array, name in zip(got, ("codeword_values", "total_costs", "writable")):
        assert array.tobytes() == getattr(expected, name).tobytes()


# ---------------------------------------------------------------------------
# The paper's K=7, 64 states.  Where the CPU has AVX2 the native search runs
# a searcher with an expanded table (every Table I MFC code) in its uint8 AVX2
# body: a step's survivors are one 64-bit word there, bit j state 2j's and bit
# 32 + j state 2j + 1's, and it renormalises every 8 steps.
# ---------------------------------------------------------------------------


def _cpu_flags() -> set[str]:
    """The feature flags /proc/cpuinfo lists, none where it cannot be read."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


@needs_native
def test_no_other_state_count_takes_the_vector_body() -> None:
    library = _native_library()
    for states in (4, 16, 32, 128, 256):
        assert library.search_vector_body(states) == 0


@needs_native
@pytest.mark.skipif(
    platform.machine() != "x86_64" or "avx2" not in _cpu_flags(),
    reason="the vector body is for x86-64 CPUs whose /proc/cpuinfo lists avx2",
)
def test_k7_searcher_takes_the_vector_body_where_the_cpu_has_avx2() -> None:
    """A dispatch that slips back to the plain body returns the same bytes at
    half the speed: no equivalence test can see it, this one does."""
    viterbi = _with_backend(_make_code("mfc-1/2-1bpc", 7), "native")
    assert viterbi._expanded is not None and viterbi._limit8 >= 0
    assert _bound_address(viterbi, "expanded") != 0  # the kernel is handed it
    assert _native_library().search_vector_body(viterbi.trellis.num_states) == 1


@needs_native
def test_no_other_cell_takes_the_sixteen_cell_body() -> None:
    """Only 3-bit cells of 1 or 2 bits each are counted and programmed
    sixteen at a time."""
    library = _native_library()
    for width, bits_per_cell in ((1, 1), (5, 1), (7, 1), (15, 1), (3, 0), (3, 3)):
        assert library.page_vector_body(width, bits_per_cell) == 0


@needs_native
@pytest.mark.skipif(
    platform.machine() != "x86_64" or "avx2" not in _cpu_flags(),
    reason="the vector body is for x86-64 CPUs whose /proc/cpuinfo lists avx2",
)
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_3_bit_cell_pages_take_the_sixteen_cell_body_where_the_cpu_has_avx2(
    variant,
) -> None:
    """Every Table I code's page count and program run sixteen cells at a
    time: a fallback to the plain bodies returns the same bytes, slower, and
    only this test sees it."""
    code = _make_code(variant, 7)
    assert code.varray.bits_per_cell == 3
    assert _native_library().page_vector_body(
        code.varray.bits_per_cell, code.codebook.bits_per_cell
    ) == 1


@needs_native
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_k7_survivor_word_and_renormalisation_edges(variant) -> None:
    """Step counts either side of 8 (a survivor byte of the plain body and
    uint8's first renormalisation), 16 (int16's first) and 24 and 32 (later
    ones), on cells with headroom and on saturated ones, walked back from
    the survivor word in uint8 and from survivor bytes in int16."""
    code = _make_code(variant, 7)
    num_levels = code.viterbi.codebook.num_levels
    for steps in (1, 7, 8, 9, 15, 16, 17, 24, 25, 33):
        for lanes, max_level in ((1, num_levels - 2), (3, num_levels - 1)):
            reps, levels = _random_case(
                code.viterbi, lanes, steps, steps + lanes, max_level
            )
            _assert_native_is_numpy(code, reps, levels)


@needs_native
def test_k7_lane_whose_costs_pass_both_bigs_renormalises() -> None:
    """mfc-3/4 on cells all at level 2: over 6000 steps the cheapest path's
    cost passes uint8's BIG early on and int16's by the end, so only
    renormalising (every 8 steps in uint8, 16 in int16) keeps the lane
    finite and exact, with nothing redone in either width."""
    code = _make_code("mfc-3/4", 7)
    native = _with_backend(code, "native")
    reps = np.random.default_rng(34).integers(0, code.viterbi.num_values, (1, 6000))
    levels = np.full((1, 6000, code.viterbi.cells_per_step), 2)
    assert _assert_native_is_numpy(code, reps, levels).all()
    total = code.viterbi.search_batch(reps, levels).total_costs[0]
    assert kernels.INT16_BIG < total < np.inf
    for expanded in (native._expanded, None):
        assert _native_search(native, reps, levels, expanded=expanded)[0] == 0


@needs_native
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_table1_lifetimes_at_k7_redo_no_lane(variant, monkeypatch) -> None:
    """A whole Table I lifetime (a 4 KB page, K=7, five erase cycles, seed
    2016) through the native search redoes no lane.  A lane uint8 hands on
    is redone in int16, which gathers its costs, several times slower, and
    returns the same bytes: only this test sees a limit or a renormalisation
    period that made that common."""
    monkeypatch.setenv(kernels.BACKEND_ENV, "native")
    scheme = MfcScheme(variant, 32768, constraint_length=7)
    viterbi = scheme.code.viterbi
    assert viterbi.backend.name == "native" and viterbi._expanded is not None
    searches = []
    search_batch = viterbi.search_batch

    def recording(reps, levels):
        # A copy: the page program writes the new levels over these.
        searches.append((np.array(reps), np.array(levels)))
        return search_batch(reps, levels)

    viterbi.search_batch = recording
    LifetimeSimulator(scheme, seed=2016).run(cycles=5)
    assert len(searches) > 5 * 4
    for reps, levels in searches:
        status, *_result = _native_search(
            viterbi, reps, levels, expanded=viterbi._expanded
        )
        assert status == 0


def _dead_at_top(level: int, target: int, num_levels: int) -> float:
    """The paper's metric, but a cell at the top level takes no symbol at
    all, not even the one it reads: every branch of a step with such a cell
    is infeasible."""
    if level == num_levels - 1:
        return float("inf")
    return methuselah_metric(level, target, num_levels)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("constraint_length", [3, 5, 7])  # 7: the AVX2 body
def test_a_lane_that_dies_at_a_chosen_step(backend, constraint_length) -> None:
    """Lane 1 has a top-level cell at step ``death``, so every one of its
    states is dead from that step on, between two writable lanes.  The uint8
    and int16 kernels stop the lane at their next renormalisation.  The lane comes back
    ``inf`` and unwritable with an all-zero codeword, on both cost paths and
    in float64, and its neighbours come back as the reference search makes
    them.  The steps a stopped lane does not run are still range-checked:
    a chunk or a level out of range at the last step is refused."""
    trellis = get_code(2, constraint_length).build_trellis()
    viterbi = CosetViterbi(
        trellis, make_codebook(1, 4, metric=_dead_at_top), backend=backend
    )
    assert viterbi.backend.name == backend
    for death in (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 69):
        reps, levels = _random_case(viterbi, 3, 70, death, 2)
        levels[1, death, 0] = 3
        _assert_bit_identical(viterbi, reps, levels)
        if backend == "native":
            _assert_narrow_is_float64(viterbi, reps, levels)
        chunk_out_of_range = reps.copy()
        chunk_out_of_range[1, -1] = viterbi.num_values
        level_out_of_range = levels.copy()
        level_out_of_range[1, -1, 1] = 4
        for searcher in _cost_paths(viterbi):
            result = searcher.search_batch(reps, levels)
            assert result.writable.tolist() == [True, False, True]
            assert result.total_costs[1] == np.inf
            assert result.codeword_values[1].tolist() == [0] * 70
            with pytest.raises(IndexError):
                searcher.search_batch(chunk_out_of_range, levels)
            if backend == "native":
                with pytest.raises(IndexError, match="out of range"):
                    searcher.search_batch(reps, level_out_of_range)


def _free_metric(level: int, target: int, num_levels: int) -> float:
    return 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_k7_every_end_state_ties(backend) -> None:
    """A metric that costs nothing: every select ties and all 64 end states
    tie, so the tie rules alone pick the path.  End state 0, predecessor 0
    at every step: the path stays in state 0, whose output on input 0 is
    zero, so the codeword is the coset chunks themselves."""
    trellis = get_code(2, 7).build_trellis()
    viterbi = CosetViterbi(
        trellis, make_codebook(1, 4, metric=_free_metric), backend=backend
    )
    assert viterbi.backend.name == backend and trellis.output_values[0, 0] == 0
    for steps in (1, 8, 16, 17, 33):
        reps = np.zeros((2, steps), dtype=np.int64)
        reps[1] = np.random.default_rng(steps).integers(0, viterbi.num_values, steps)
        levels = np.zeros((2, steps, viterbi.cells_per_step), dtype=np.int64)
        result = viterbi.search_batch(reps, levels)
        assert result.total_costs.tolist() == [0.0, 0.0]
        assert result.codeword_values.tobytes() == reps.tobytes()


@needs_native
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_native_k7_batch_of_writable_and_unwritable_lanes(variant) -> None:
    """Every search of a K=7 page lifetime, each batch holding an unwritable
    lane between writable ones."""
    code = _make_code(variant, 7)
    code.viterbi = _with_backend(code, "numpy")
    searches = _page_lifetime(code, 5, 7)
    mixed = 0
    for reps, levels in searches:
        writable = _assert_native_is_numpy(code, reps, levels)
        mixed += bool(writable.any() and not writable.all())
    assert mixed > 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_backend_saturated_lanes_mixed_with_writable(backend, variant) -> None:
    """``inf`` branches, and unwritable lanes next to writable ones."""
    viterbi = _with_backend(_make_code(variant, 4), backend)
    num_levels = viterbi.codebook.num_levels
    mixed = False
    for seed in range(16):
        reps, levels = _random_case(viterbi, 8, 13, seed, num_levels - 1)
        _assert_bit_identical(viterbi, reps, levels)
        writable = viterbi.search_batch(reps, levels).writable
        mixed = mixed or (writable.any() and not writable.all())
    assert mixed


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_float64_branch(backend) -> None:
    """Sums past numpy's float32-exact bound run its recursion in float64;
    native still runs uint8 (its metric has not changed).  Either way the
    costs come back as exact float64."""
    viterbi = _with_backend(_make_code("mfc-2/3", 5), backend)
    viterbi._max_step_cost = float(2**24)  # past the float32-exact bound
    for lanes, steps in ((1, 10), (5, 11)):
        reps, levels = _random_case(viterbi, lanes, steps, steps, 3)
        _assert_bit_identical(viterbi, reps, levels)
        assert viterbi.search_batch(reps, levels).total_costs.dtype == np.float64


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_without_fused_table_runs_numpy(backend) -> None:
    """16 levels on mfc-4/5 exceed the fused-table cap: the native kernel
    needs that table, so such a searcher visibly resolves to numpy."""
    code = _make_code("mfc-4/5", 4, vcell_levels=16)
    viterbi = CosetViterbi(
        code.viterbi.trellis, code.viterbi.codebook, backend=backend
    )
    assert viterbi._fused_flat is None
    assert viterbi.backend.name == "numpy"
    for lanes, steps in ((1, 8), (3, 9)):
        reps, levels = _random_case(viterbi, lanes, steps, steps, 14)
        _assert_bit_identical(viterbi, reps, levels)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_accepts_strided_and_narrow_inputs(backend) -> None:
    """The seam promises neither contiguity nor int64 at the boundary."""
    viterbi = _with_backend(_make_code("mfc-2/3", 5), backend)
    reps, levels = _random_case(viterbi, 5, 26, 11, 2)
    reference = viterbi.search_batch(reps, levels)
    variants = (
        (np.asfortranarray(reps), np.asfortranarray(levels)),
        (reps.astype(np.int32), levels.astype(np.uint8)),
        (reps.tolist(), levels.tolist()),
    )
    for odd_reps, odd_levels in variants:
        result = viterbi.search_batch(odd_reps, odd_levels)
        assert np.array_equal(result.codeword_values, reference.codeword_values)
        assert np.array_equal(result.total_costs, reference.total_costs)
    # Every second step of a longer page: strided views of both inputs.
    sliced = viterbi.search_batch(reps[:, ::2], levels[:, ::2])
    copied = viterbi.search_batch(reps[:, ::2].copy(), levels[:, ::2].copy())
    assert np.array_equal(sliced.codeword_values, copied.codeword_values)
    _assert_bit_identical(viterbi, reps[:, ::2], levels[:, ::2])


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_reads_lanes_at_their_row_stride(backend, monkeypatch) -> None:
    """Levels whose lanes lie a page's row of levels apart, as
    ``encode_batch`` hands them when a page has tail cells: the numpy twin's
    result, and the native kernel reads the view itself, not a copy."""
    code = _make_code("mfc-2/3", 5)
    viterbi = _with_backend(code, backend)
    lanes, steps, cells = 3, 26, viterbi.cells_per_step
    reps, levels = _random_case(viterbi, lanes, steps, 13, 2)
    rows = np.full((lanes, steps * cells + 5), 7, dtype=np.int64)
    rows[:, : steps * cells] = levels.reshape(lanes, -1)
    view = rows[:, : steps * cells].reshape(lanes, steps, cells)
    assert not view.flags.c_contiguous and view.base is not None
    copied = []
    contiguous = np.ascontiguousarray

    def spy(array, *args, **kwargs):
        copied.append(array is view)
        return contiguous(array, *args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", spy)
    result = viterbi.search_batch(reps, view)
    monkeypatch.undo()
    expected = _with_backend(code, "numpy").search_batch(reps, levels)
    for name in ("codeword_values", "total_costs", "writable"):
        assert getattr(result, name).tobytes() == getattr(expected, name).tobytes()
    if backend == "native":
        assert not any(copied)
        # Lanes closer than a lane's levels overlap: the kernel refuses them.
        status, *_ = _native_search(viterbi, reps, view, stride=steps * cells - 1)
        assert status == -2


#: The ``CosetViterbi`` tables each backend's search reads.
KERNEL_TABLES = {
    "numpy": ("_prev_src", "_pred_output", "_prev_flat"),
    "native": ("_out_values", "_order", "_expanded"),
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_tables_need_not_be_contiguous(backend) -> None:
    """Tables reach the kernel through a copy-if-needed, never as they are:
    numpy's at each search, native's when they are bound."""
    viterbi = _with_backend(_make_code("mfc-1/2-1bpc", 5), backend)
    reps, levels = _random_case(viterbi, 3, 13, 2, 2)
    reference = viterbi.search_batch(reps, levels)
    for name in KERNEL_TABLES[backend]:
        table = getattr(viterbi, name)
        wide = np.zeros(
            (*table.shape[:-1], 2 * table.shape[-1]), dtype=table.dtype
        )
        wide[..., ::2] = table
        setattr(viterbi, name, wide[..., ::2])  # same values, strided view
        assert not getattr(viterbi, name).flags.c_contiguous
    if backend == "native":
        viterbi._bind_search_tables()
        for name, table in viterbi._search_block.tables.items():
            assert table.flags.c_contiguous
            assert _bound_address(viterbi, name) == table.ctypes.data
            if name in ("order", "expanded", "out_values"):
                assert table is not getattr(viterbi, f"_{name}")  # a copy was bound
    for strided in _cost_paths(viterbi):
        result = strided.search_batch(reps, levels)
        assert np.array_equal(result.codeword_values, reference.codeword_values)
        assert np.array_equal(result.total_costs, reference.total_costs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_scratch_scales_with_state_count(backend) -> None:
    """256 states: no backend may assume the paper's 64."""
    viterbi = _with_backend(_make_code("mfc-1/2-1bpc", 9), backend)
    assert viterbi.trellis.num_states == 256
    for lanes, steps in ((1, 23), (2, 24)):
        reps, levels = _random_case(viterbi, lanes, steps, steps, 2)
        _assert_bit_identical(viterbi, reps, levels)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_empty_batch(backend) -> None:
    """A batch of no lanes is valid input, whatever its step count."""
    untabulated = _make_code("mfc-4/5", 4, vcell_levels=16).viterbi
    assert untabulated._fused_flat is None
    for viterbi in (
        _with_backend(_make_code("mfc-1/2-1bpc", 3), backend), untabulated
    ):
        for steps in (0, 1, 12):
            reps, levels = _random_case(viterbi, 0, steps, 0, 2)
            result = viterbi.search_batch(reps, levels)
            assert result.codeword_values.shape == (0, steps)
            assert result.target_levels.shape == (
                0, steps, viterbi.cells_per_step
            )
            assert len(result) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_rejects_out_of_range_chunks(backend) -> None:
    searcher = _with_backend(_make_code("mfc-1/2-1bpc", 3), backend)
    reps, levels = _random_case(searcher, 2, 8, 0, 2)
    reps[1, 5] = searcher.num_values
    for viterbi in _cost_paths(searcher):
        with pytest.raises(IndexError):
            viterbi.search_batch(reps, levels)


@needs_native
def test_native_rejects_out_of_range_levels() -> None:
    searcher = _with_backend(_make_code("mfc-1/2-1bpc", 3), "native")
    reps, levels = _random_case(searcher, 2, 9, 0, 2)
    for viterbi in _cost_paths(searcher):
        for bad in (-1, viterbi.codebook.num_levels):
            broken = levels.copy()
            broken[1, 8, 0] = bad
            with pytest.raises(IndexError, match="out of range"):
                viterbi.search_batch(reps, broken)


# ---------------------------------------------------------------------------
# Searchers outside the paper's case: a non-integral metric (float64 metrics,
# sums that do not regroup) and a trellis whose input bit is not the state's
# low bit.  No factory scheme builds either, so they are built by hand here.
# ---------------------------------------------------------------------------


def _fractional_metric(level: int, target: int, num_levels: int) -> float:
    """Infeasible exactly where the paper's metric is, fractional elsewhere."""
    if np.isinf(methuselah_metric(level, target, num_levels)):
        return float("inf")
    return 0.1 * (target - level) * (level + 1)


def _permuted_trellis(trellis: Trellis) -> Trellis:
    """The same code with its state labels shuffled."""
    new_label = np.random.default_rng(trellis.num_states).permutation(
        trellis.num_states
    ).astype(np.int32)
    old_label = np.argsort(new_label)
    permuted = Trellis(
        num_states=trellis.num_states,
        outputs_per_step=trellis.outputs_per_step,
        next_state=new_label[trellis.next_state[old_label]],
        output_values=trellis.output_values[old_label],
        prev_state=new_label[trellis.prev_state[old_label]],
        prev_input=trellis.prev_input[old_label],
    )
    low_bit = np.arange(trellis.num_states) & 1
    assert not np.array_equal(permuted.prev_input[:, 0], low_bit)
    return permuted


def _swapped_predecessors(trellis: Trellis) -> Trellis:
    """The same trellis listing each state's two predecessors high one first:
    input labels still in the low bit, but not the butterfly's order."""
    return dataclasses.replace(
        trellis,
        prev_state=trellis.prev_state[:, ::-1],
        prev_input=trellis.prev_input[:, ::-1],
    )


#: Metric, and what is done to the registry code's trellis.
GENERIC_CASES = {
    "fractional-metric": (_fractional_metric, None),
    "permuted-states": (methuselah_metric, _permuted_trellis),
    "fractional-metric-permuted-states": (_fractional_metric, _permuted_trellis),
    "swapped-predecessors": (methuselah_metric, _swapped_predecessors),
}


def _generic_searcher(case: str, denominator: int, backend: str) -> CosetViterbi:
    metric, rebuild = GENERIC_CASES[case]
    trellis = get_code(denominator, 5).build_trellis()
    if rebuild is not None:
        trellis = rebuild(trellis)
    return CosetViterbi(
        trellis, make_codebook(1, 4, metric=metric), backend=backend
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("denominator", [2, 3, 5])
@pytest.mark.parametrize("case", sorted(GENERIC_CASES))
def test_generic_searchers_bit_identical(backend, denominator, case) -> None:
    viterbi = _generic_searcher(case, denominator, backend)
    for steps in (0, 1, 2, 3, 11, 12):
        for lanes in (1, 5, 64):
            reps, levels = _random_case(viterbi, lanes, steps, steps + lanes, 3)
            _assert_bit_identical(viterbi, reps, levels)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(GENERIC_CASES))
def test_generic_searcher_names_the_backend_that_ran(backend, case) -> None:
    """The C kernel serves integer costs on shift-register trellises only
    (low-bit input labels *and* predecessors ``s >> 1``, ``(s >> 1) + S/2``);
    telemetry prints ``backend.name``, so it has to say what ran instead."""
    assert _generic_searcher(case, 2, backend).backend.name == "numpy"


def test_unknown_backend_raises() -> None:
    with pytest.raises(ConfigurationError, match="unknown Viterbi kernel"):
        kernels.resolve_backend("vectorblas")


def test_auto_selection_prefers_accelerator_else_numpy(monkeypatch) -> None:
    monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
    expected = "native" if "native" in BACKENDS else "numpy"
    assert kernels.resolve_backend("auto").name == expected
    assert kernels.resolve_backend(None).name == expected
    assert kernels.backend_names() == ["native", "numpy"]


def test_env_var_selects_backend(monkeypatch) -> None:
    monkeypatch.setenv(kernels.BACKEND_ENV, "numpy")
    assert kernels.resolve_backend().name == "numpy"
    code = _make_code("mfc-1/2-1bpc", 3)
    assert code.viterbi.backend.name == "numpy"
    # An explicit argument outranks the environment.
    monkeypatch.setenv(kernels.BACKEND_ENV, "vectorblas")
    assert kernels.resolve_backend("numpy").name == "numpy"
    with pytest.raises(ConfigurationError):
        kernels.resolve_backend()
