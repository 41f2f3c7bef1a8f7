"""Bit-identity of the page kernels against their numpy twins.

Beside the search, a kernel backend carries the rest of a page write:
``search_inputs`` (the coset chunks, the dataword's syndrome divided by
``g1``, and the page's levels), ``program`` (raise every v-cell to the level
its codeword symbol asks for), and the page read, ``decode`` (the syndrome of
the codeword the cells store), with ``levels`` (each v-cell's level, the
popcount of its bits) for any other page read.  The numpy backend's
callables *are* the reference (``SyndromeFormer.representative_batch`` with
``_packed_chunks`` and ``levels_batch``, ``_popcount``, the column walk of
``VCellArray.program_levels_batch`` and ``SyndromeFormer.syndrome_batch``
over the cells' symbols); every other available backend must return the
same bytes and raise the same exception types.  ``make
kernel-sanitize`` runs this file under ASan + UBSan: the native entries
take raw pointers.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.coding import coset, kernels, page_code
from repro.coding.coset import ConvolutionalCosetCode
from repro.coding.kernels import _packed_chunks
from repro.coding.registry import list_codes
from repro.coding.viterbi import ViterbiBatchResult
from repro.core.mfc import MFC_VARIANTS
from repro.errors import CodingError, VCellError
from repro.vcell.varray import _popcount

BACKENDS = kernels.available_backends()

needs_native = pytest.mark.skipif(
    "native" not in BACKENDS, reason="no C compiler here"
)

#: A prime page: every cell width leaves tail bits, every step size tail cells.
PAGE_BITS = 2003

#: Every MFC variant on the paper's 4-level cells (width 3, the one the native
#: kernel specialises), and the 1BPC ones on cells of width 5, 7 and 15, which
#: take its generic loop.
CODES = [(variant, 4) for variant in sorted(MFC_VARIANTS)] + [
    (variant, levels)
    for variant in ("mfc-1/2-1bpc", "mfc-4/5")
    for levels in (6, 8, 16)
]


def _make_code(variant: str, vcell_levels: int = 4, codebook=None):
    denominator, bits_per_cell = MFC_VARIANTS[variant]
    return ConvolutionalCosetCode(
        page_bits=PAGE_BITS,
        rate_denominator=denominator,
        constraint_length=7,
        bits_per_cell=bits_per_cell,
        vcell_levels=vcell_levels,
        codebook=codebook,
    )


def _random_pages(code, lanes: int, seed: int) -> np.ndarray:
    """Mid-life pages whose cells are *not* thermometer-coded: each cell has
    a random level's worth of bits set at random positions.  The cells past
    ``used_cells`` and the bits past ``used_bits`` are all set."""
    rng = np.random.default_rng(seed)
    varray = code.varray
    width = varray.bits_per_cell
    levels = rng.integers(0, width + 1, (lanes, varray.num_cells, 1))
    cells = (np.arange(width) < levels).astype(np.uint8)
    cells = rng.permuted(cells, axis=2)
    cells[:, code.used_cells :] = 1
    pages = np.ones((lanes, PAGE_BITS), dtype=np.uint8)
    pages[:, : varray.used_bits] = cells.reshape(lanes, varray.used_bits)
    return pages


def _program(backend: str, code, pages, codeword_values, writable, levels=None):
    """The new pages of :func:`_program_with_levels`."""
    return _program_with_levels(
        backend, code, pages, codeword_values, writable, levels
    )[0]


def _program_with_levels(
    backend: str, code, pages, codeword_values, writable, levels=None
):
    """``program`` on what ``search_batch`` would hand it for this codeword,
    with the pages' levels unless others are handed: ``(new_pages,
    new_levels)``."""
    if levels is None:
        levels = code.varray.levels_batch(pages)
    result = ViterbiBatchResult(
        codeword_values=np.asarray(codeword_values, dtype=np.int64),
        total_costs=np.where(writable, 0.0, np.inf),
        writable=np.asarray(writable, dtype=bool),
        step_levels=levels[:, : code.used_cells].reshape(
            len(pages), code.steps, code.cells_per_step
        ),
        searcher=code.viterbi,
    )
    return kernels.resolve_backend(backend).program(code, pages, levels, result)


def _random_codeword(code, lanes: int, seed: int) -> np.ndarray:
    """Any chunk is programmable: a symbol the cell cannot take keeps its
    level (``CellCodebook.target_table``), as on a search's infeasible branch."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, code.viterbi.num_values, (lanes, code.steps))


def _views(array) -> list[np.ndarray]:
    """``array`` and the same values as a column-strided view, a
    row-strided one and a Fortran-order copy."""
    wide = np.zeros((len(array), 2 * array.shape[1]), dtype=array.dtype)
    wide[:, ::2] = array
    rows = np.zeros((2 * len(array), array.shape[1]), dtype=array.dtype)
    rows[::2] = array
    return [array, wide[:, ::2], rows[::2], np.asfortranarray(array)]


# -- program ---------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_program_matches_the_column_walk(backend, variant, vcell_levels) -> None:
    code = _make_code(variant, vcell_levels)
    for lanes in (0, 1, 33):
        pages = _random_pages(code, lanes, seed=lanes)
        before = pages.copy()
        codeword = _random_codeword(code, lanes, seed=lanes + 1)
        writable = np.ones(lanes, dtype=bool)
        writable[lanes // 2 : lanes // 2 + 1] = lanes < 2  # one in the middle
        expected = _program("numpy", code, pages, codeword, writable)
        got = _program(backend, code, pages, codeword, writable)
        assert got.dtype == np.uint8 and got.shape == pages.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(pages, before)  # never programmed in place
        assert got is not pages
        # Unwritable lanes, tail cells and tail bits come back byte for byte.
        assert np.array_equal(got[~writable], pages[~writable])
        tail = code.used_cells * code.varray.bits_per_cell
        assert np.array_equal(got[:, tail:], pages[:, tail:])
        if lanes == 33:
            assert (got != pages).any()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_program_reports_the_levels_it_wrote(backend, variant, vcell_levels) -> None:
    """The levels ``program`` returns are the count of the pages it returns:
    a written cell's new level, and the handed one on an unwritable lane and
    past ``used_cells``."""
    code = _make_code(variant, vcell_levels)
    for writable in ([True], [False], [True, False, True, False, True]):
        writable = np.array(writable)
        pages = _random_pages(code, len(writable), seed=len(writable) + 20)
        before = code.varray.levels_batch(pages)
        codeword = _random_codeword(code, len(writable), seed=len(writable) + 21)
        got, levels = _program_with_levels(
            backend, code, pages, codeword, writable, before.copy()
        )
        assert levels.dtype == np.int64 and levels.shape == before.shape
        assert np.array_equal(levels, code.varray.levels_batch(got))
        assert np.array_equal(levels[~writable], before[~writable])
        assert np.array_equal(levels[:, code.used_cells :], before[:, code.used_cells :])
        assert (levels != before).any() == writable.any()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_a_refused_later_lane_leaves_the_levels_as_handed(
    backend, variant, vcell_levels
) -> None:
    """The native kernel writes its levels over the ones it is handed, and
    re-runs the twin on those same levels when it refuses a call: so it
    checks every lane before it writes any.  Lanes 0-2 are valid and
    writable, lane 3 is refused; the call raises the twin's exception with
    its message and the handed levels come back untouched."""
    code = _make_code(variant, vcell_levels)
    width = code.varray.bits_per_cell
    last = code.used_cells - 1
    writable = np.ones(5, dtype=bool)
    valid = _random_pages(code, 5, seed=31)
    codeword = _random_codeword(code, 5, seed=32)
    not_a_bit = valid.copy()
    not_a_bit[3, last * width] = 2
    level_past_table = code.varray.levels_batch(valid)
    level_past_table[3, last] = width + 1
    chunk_out_of_range = codeword.copy()
    chunk_out_of_range[3, -1] = code.viterbi.num_values
    for pages, words, levels in (
        (not_a_bit, codeword, code.varray.levels_batch(valid)),
        (valid, codeword, level_past_table),
        (valid, chunk_out_of_range, code.varray.levels_batch(valid)),
    ):
        handed = levels.copy()
        with pytest.raises(Exception) as reference:
            _program_with_levels("numpy", code, pages, words, writable, levels)
        with pytest.raises(reference.type) as refused:
            _program_with_levels(backend, code, pages, words, writable, handed)
        assert str(refused.value) == str(reference.value)
        assert np.array_equal(handed, levels)


@needs_native
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_native_program_needs_no_twin_on_valid_input(
    variant, vcell_levels, monkeypatch
) -> None:
    """The native ``program`` re-runs the twin for what its kernel refuses,
    to raise the reference's exception; a kernel that refused everything
    would pass every comparison in this file that way."""
    code = _make_code(variant, vcell_levels)
    pages = _random_pages(code, 5, seed=1)
    codeword = _random_codeword(code, 5, seed=2)
    writable = np.array([True, True, False, True, True])
    expected = _program("numpy", code, pages, codeword, writable)

    def no_twin(*_args):
        raise AssertionError("the kernel refused a valid page")

    monkeypatch.setattr(kernels, "_program_numpy", no_twin)
    got = _program("native", code, pages, codeword, writable)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_every_page_read_checks_the_last_cell(backend, variant, vcell_levels) -> None:
    """A byte that is not a bit in the page's last cell, past ``used_cells``
    where the steps leave tail cells: the write's search inputs, the page
    program and the page read refuse it as the twin's count of every cell
    does, naming the lane and the bit.  A byte past ``used_bits`` belongs to
    no cell: the read passes over it and the program hands it back."""
    code = _make_code(variant, vcell_levels)
    width = code.varray.bits_per_cell
    bit = (code.varray.num_cells - 1) * width
    pages = _random_pages(code, 3, seed=41)
    pages[1, bit] = 2
    codeword = _random_codeword(code, 3, seed=42)
    data = np.zeros((3, code.dataword_bits), dtype=np.uint8)
    in_range = np.ones((3, code.varray.num_cells), dtype=np.int64)
    match = f"lane 1, bit {bit}: byte 2 is not a bit"
    with pytest.raises(VCellError, match=match):
        kernels.resolve_backend(backend).search_inputs(code, data, pages)
    with pytest.raises(VCellError, match=match):
        _program(backend, code, pages, codeword, np.ones(3, dtype=bool), in_range)
    with pytest.raises(VCellError, match=match):
        kernels.resolve_backend(backend).decode(code, pages)
    pages[1, bit] = 1
    pages[1, -1] = 2  # a tail bit: every width leaves some on this page
    expected = kernels.resolve_backend("numpy").decode(code, pages)
    assert np.array_equal(kernels.resolve_backend(backend).decode(code, pages), expected)
    levels = code.varray.levels_batch(pages)
    got = _program(backend, code, pages, codeword, np.ones(3, dtype=bool), levels)
    assert got[1, -1] == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_program_sets_the_lowest_unset_bits(backend) -> None:
    """One cell by hand: bits (0, 1, 0) at level 1, asked for level 2 and 3."""
    code = _make_code("mfc-1/2-2bpc")
    pages = np.zeros((2, PAGE_BITS), dtype=np.uint8)
    pages[:, :3] = (0, 1, 0)
    codeword = np.zeros((2, code.steps), dtype=np.int64)
    codeword[:, 0] = (2, 3)  # 2 bits per cell: the symbol is the level
    got = _program(backend, code, pages, codeword, np.ones(2, dtype=bool))
    assert got[0, :3].tolist() == [1, 1, 0]
    assert got[1, :3].tolist() == [1, 1, 1]
    assert not got[:, 3:].any()


@pytest.mark.parametrize("backend", BACKENDS)
def test_program_accepts_strided_and_narrow_inputs(backend) -> None:
    code = _make_code("mfc-2/3")
    pages = _random_pages(code, 4, seed=7)
    codeword = _random_codeword(code, 4, seed=8)
    writable = np.array([True, False, True, True])
    expected = _program("numpy", code, pages, codeword, writable)
    wide = np.zeros((4, 2 * PAGE_BITS), dtype=np.int64)
    wide[:, ::2] = pages
    for odd_pages, odd_codeword in (
        (wide[:, ::2], np.asfortranarray(codeword)),
        (np.asfortranarray(pages), codeword.astype(np.int32)),
    ):
        got = _program(backend, code, odd_pages, odd_codeword, writable)
        assert np.array_equal(got, expected)


def _broken_codebook(code, level: int, symbol: int, target: int):
    table = code.codebook.target_table.copy()
    table[level, symbol] = target
    return dataclasses.replace(code.codebook, target_table=table)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_program_refuses_what_the_column_walk_refuses(
    backend, variant, vcell_levels
) -> None:
    """Every check of the numpy path survives in every program body: same
    exception types, raised before the caller sees a page, and the input left
    as it was.  What is refused sits in an early cell or step and in the last
    used one, so a check that stops short of the page's end fails here."""
    plain = _make_code(variant, vcell_levels)
    lowering = _make_code(
        variant, vcell_levels, codebook=_broken_codebook(plain, 2, 0, 1)
    )
    width = plain.varray.bits_per_cell
    overshooting = _make_code(
        variant, vcell_levels, codebook=_broken_codebook(plain, 1, 0, width + 1)
    )
    writable = np.ones(3, dtype=bool)
    skipping = np.array([True, False, False])
    zeros = np.zeros((3, plain.steps), dtype=np.int64)
    in_range = np.ones((3, plain.varray.num_cells), dtype=np.int64)

    def lane_1_with(cell: int, bits) -> np.ndarray:
        pages = np.zeros((3, PAGE_BITS), dtype=np.uint8)
        pages[1, cell * width : cell * width + len(bits)] = bits
        return pages

    for cell, step in ((1, 1), (plain.used_cells - 1, plain.steps - 1)):
        level_two = lane_1_with(cell, (1, 0, 1))
        # Would count as one level past the top, from the cell's last byte.
        not_a_bit = lane_1_with(cell, (1,) * (width - 1) + (2,))
        level_past_table = plain.varray.levels_batch(level_two)
        level_past_table[1, cell] = width + 1
        chunk_out_of_range = zeros.copy()
        chunk_out_of_range[2, step] = plain.viterbi.num_values
        cases = (
            # The legality of a target is a written lane's matter ...
            (lowering, level_two, zeros, None, "VCellError", True),
            (overshooting, lane_1_with(cell, (0, 0, 1)), zeros, None,
             "CellSaturatedError", True),
            # ... what indexes a table is checked in every lane: a byte that
            # is not a bit (handed levels in range, so the page's own bytes
            # are what is refused), a handed level past the target table, a
            # chunk value >= 2**m.
            (plain, not_a_bit, zeros, in_range, "VCellError", False),
            (plain, level_two, zeros, level_past_table, "IndexError", False),
            (plain, level_two, chunk_out_of_range, None, "IndexError", False),
        )
        for code, pages, codeword, levels, error, fine_when_skipped in cases:
            before = pages.copy()
            with pytest.raises(Exception) as reference:
                _program("numpy", code, pages, codeword, writable, levels)
            assert reference.type.__name__ == error
            with pytest.raises(reference.type):
                _program(backend, code, pages, codeword, writable, levels)
            assert np.array_equal(pages, before)
            if fine_when_skipped:
                assert np.array_equal(
                    _program(backend, code, pages, codeword, skipping, levels),
                    _program("numpy", code, pages, codeword, skipping, levels),
                )
            else:
                with pytest.raises(reference.type):
                    _program(backend, code, pages, codeword, skipping, levels)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_whole_writes_agree_until_the_page_wears_out(
    backend, variant, vcell_levels, monkeypatch
) -> None:
    """``encode_batch`` end to end (search inputs, search, program) on each
    backend, write after write, down to the unwritable mask."""
    monkeypatch.setenv(kernels.BACKEND_ENV, "numpy")
    reference = _make_code(variant, vcell_levels)
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    code = _make_code(variant, vcell_levels)
    rng = np.random.default_rng(11)
    pages = np.zeros((3, PAGE_BITS), dtype=np.uint8)
    for _ in range(400):
        data = rng.integers(0, 2, (3, code.dataword_bits), dtype=np.uint8)
        expected, expected_writable = reference.encode_batch(data, pages)
        got, writable = code.encode_batch(data, pages)
        assert np.array_equal(writable, expected_writable)
        assert np.array_equal(got, expected)
        assert np.array_equal(code.last_write_costs, reference.last_write_costs)
        assert np.array_equal(code.decode_batch(got)[writable], data[writable])
        if not writable.any():
            break
        pages = got
    else:
        pytest.fail("the pages never wore out")


@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_packed_chunks_are_the_streams_shifted_into_place(variant, vcell_levels) -> None:
    """The search's input, packed from the representative the division
    made, equals packing each stream's column into int64 and shifting it
    to its bit."""
    code = _make_code(variant, vcell_levels)
    m = code.code.num_outputs
    rng = np.random.default_rng(13)
    for lanes in (0, 1, 5):
        syndromes = rng.integers(0, 2, (lanes, code.steps, m - 1), dtype=np.uint8)
        representative = code.former.representative_batch(syndromes)
        expected = np.left_shift(representative[:, :, 1], 1, dtype=np.int64)
        for j in range(2, m):
            expected |= np.left_shift(representative[:, :, j], j, dtype=np.int64)
        got = _packed_chunks(representative)
        assert got.shape == expected.shape
        assert np.array_equal(np.asarray(got, dtype=np.int64), expected)


# -- the sixteen-cell bodies ------------------------------------------------------
# On a CPU with AVX2 the native count and program of 3-bit cells run sixteen
# cells at a time, as three bit planes, and the plain bodies the cells past the
# last whole sixteen.  Each shape is checked on cell counts that leave one and
# fifteen cells over (or the nearest its cells per step allow), and on pages
# too small for one group; elsewhere the plain bodies answer the same tests.

#: Table I's shapes: every MFC variant on 4-level cells.
TABLE_I = sorted(MFC_VARIANTS)


def _code_of_cells(variant: str, cells: int, constraint_length: int = 7):
    """A code on exactly ``cells`` 3-bit cells and two tail bits."""
    denominator, bits_per_cell = MFC_VARIANTS[variant]
    code = ConvolutionalCosetCode(
        page_bits=3 * cells + 2,
        rate_denominator=denominator,
        constraint_length=constraint_length,
        bits_per_cell=bits_per_cell,
    )
    assert code.varray.num_cells == cells
    return code


def _cell_counts(variant: str) -> list[int]:
    """Cell counts past a dozen groups of sixteen: 16k + 1 and 16k + 15 for
    the count, and those whose used cells leave the fewest and the most cells
    over that the variant's cells per step allow, for the program."""
    counts = {16 * 12 + 1, 16 * 12 + 15}
    n = _code_of_cells(variant, 16 * 12 + 1).cells_per_step
    least = math.gcd(n, 16)
    for over in (least, 16 - least):
        counts.add(next(
            cells for cells in range(16 * 12, 16 * 16)
            if cells // n * n % 16 == over
        ))
    return sorted(counts)


def _patterned_pages(code, lanes: int, seed: int) -> np.ndarray:
    """Every cell, the tail cells too, one of the eight 3-bit patterns, so
    cells such as 010, 101 and 110 that no thermometer code makes are there;
    the tail bits all set."""
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 8, (lanes, code.varray.num_cells))
    cells = (patterns[..., None] >> np.arange(3) & 1).astype(np.uint8)
    pages = np.ones((lanes, code.page_bits), dtype=np.uint8)
    pages[:, : code.varray.used_bits] = cells.reshape(lanes, -1)
    return pages


def _assert_native_bodies_match(backend, code, lanes, seed, monkeypatch) -> None:
    """Search inputs, level count and program of patterned pages, in every
    layout and in reverse lane order, against the numpy twins; the native
    kernel never needs its twin on them."""
    rng = np.random.default_rng(seed)
    pages = _patterned_pages(code, lanes, seed)
    data = rng.integers(0, 2, (lanes, code.dataword_bits), dtype=np.uint8)
    codeword = _random_codeword(code, lanes, seed + 1)
    writable = np.arange(lanes) % 3 != 1  # B = 3: the middle lane is left alone
    counted = _popcount(code.varray._cells(pages))
    expected_pages, expected_levels = _program_with_levels(
        "numpy", code, pages, codeword, writable
    )
    with monkeypatch.context() as patch:
        if backend != "numpy":

            def no_twin(*_args):
                raise AssertionError("the kernel refused valid input")

            patch.setattr(kernels, "_program_numpy", no_twin)
            patch.setattr(kernels, "_search_inputs_numpy", no_twin)
        kernel = kernels.resolve_backend(backend)
        for view in _views(pages):
            _chunks, levels = kernel.search_inputs(code, data, view)
            assert np.array_equal(levels, counted)
            assert np.array_equal(kernel.levels(code.varray._cells(view)), counted)
            got_pages, got_levels = _program_with_levels(
                backend, code, view, codeword, writable
            )
            assert np.array_equal(got_pages, expected_pages)
            assert np.array_equal(got_levels, expected_levels)
        _chunks, levels = kernel.search_inputs(code, data[::-1], pages[::-1])
        assert np.array_equal(levels, counted[::-1])
        got_pages, got_levels = _program_with_levels(
            backend, code, pages[::-1], codeword[::-1], writable[::-1]
        )
        assert np.array_equal(got_pages, expected_pages[::-1])
        assert np.array_equal(got_levels, expected_levels[::-1])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", TABLE_I)
@pytest.mark.parametrize("lanes", [1, 3])
def test_sixteen_cell_bodies_match_the_twins(
    backend, variant, lanes, monkeypatch
) -> None:
    for cells in _cell_counts(variant):
        code = _code_of_cells(variant, cells)
        pages = _patterned_pages(code, lanes, seed=cells)
        patterns = code.varray._cells(pages) @ np.array([4, 2, 1])
        assert {0b010, 0b101, 0b110} <= set(patterns.ravel().tolist())
        _assert_native_bodies_match(backend, code, lanes, cells, monkeypatch)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("lanes", [1, 3])
def test_a_page_of_fewer_than_sixteen_cells(backend, lanes, monkeypatch) -> None:
    """No whole group of sixteen: the plain bodies count and program every
    cell, on any CPU.  The shapes of four and five cells a step need 20 and
    25 cells for the shortest code's five steps; the count takes every
    shape's cells."""
    for variant, cells in (
        ("mfc-1/2-2bpc", 5), ("mfc-1/2-2bpc", 15), ("mfc-1/2-1bpc", 11),
        ("mfc-2/3", 15),
    ):
        code = _code_of_cells(variant, cells, constraint_length=3)
        _assert_native_bodies_match(backend, code, lanes, cells, monkeypatch)
    levels = kernels.resolve_backend(backend).levels
    rng = np.random.default_rng(3)
    for cells in range(16):
        bits = rng.integers(0, 2, (lanes, cells, 3), dtype=np.uint8)
        assert np.array_equal(levels(bits), _popcount(bits))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", TABLE_I)
def test_a_byte_of_two_in_a_group_or_the_tail_is_refused(backend, variant) -> None:
    """A byte of 2 in the last whole group of sixteen, or in the cells past
    it, of the count's cells and of the program's: every page read names its
    lane and bit, and the program leaves the handed levels as they were."""
    code = _code_of_cells(variant, 16 * 12 + 15)
    used = code.used_cells
    kernel = kernels.resolve_backend(backend)
    last = code.varray.num_cells - 1
    for cell in sorted({16 * 12 - 1, used // 16 * 16 - 1, used - 1, last}):
        for byte in range(3):
            pages = _patterned_pages(code, 3, seed=cell)
            bit = 3 * cell + byte
            pages[1, bit] = 2
            match = f"lane 1, bit {bit}: byte 2 is not a bit"
            data = np.zeros((3, code.dataword_bits), dtype=np.uint8)
            with pytest.raises(VCellError, match=match):
                kernel.search_inputs(code, data, pages)
            with pytest.raises(VCellError, match=match):
                kernel.levels(code.varray._cells(pages))
            levels = np.ones((3, code.varray.num_cells), dtype=np.int64)
            handed = levels.copy()
            with pytest.raises(VCellError, match=match):
                _program_with_levels(
                    backend, code, pages, _random_codeword(code, 3, seed=cell),
                    np.ones(3, dtype=bool), handed,
                )
            assert np.array_equal(handed, levels)


# -- decode ----------------------------------------------------------------------


def _decode(backend: str, code, pages) -> np.ndarray:
    return kernels.resolve_backend(backend).decode(code, pages)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_decode_matches_the_syndrome_of_the_symbols(
    backend, variant, vcell_levels, monkeypatch
) -> None:
    """Any page, not only codewords: cells at random levels with their bits
    in random places and all-ones tail cells and bits
    (:func:`_random_pages`), and uniformly random bits, tail bits included.
    No page, one and five, and the same pages in other layouts.  The native
    kernel never needs its twin on such pages: a kernel that refused them
    all would pass every comparison here through the twin."""
    code = _make_code(variant, vcell_levels)
    rng = np.random.default_rng(17)
    batches = [
        _random_pages(code, 0, seed=2),
        _random_pages(code, 1, seed=3), _random_pages(code, 5, seed=4),
        rng.integers(0, 2, (1, PAGE_BITS), dtype=np.uint8),
        rng.integers(0, 2, (5, PAGE_BITS), dtype=np.uint8),
    ]
    expected = [_decode("numpy", code, pages) for pages in batches]
    if backend != "numpy":

        def no_twin(*_args):
            raise AssertionError("the kernel refused a valid page")

        monkeypatch.setattr(kernels, "_decode_numpy", no_twin)
    for pages, reference in zip(batches, expected):
        before = pages.copy()
        assert reference.dtype == np.uint8
        assert reference.shape == (len(pages), code.dataword_bits)
        for view in _views(pages):
            got = _decode(backend, code, view)
            assert got.dtype == np.uint8
            assert np.array_equal(got, reference)
        assert np.array_equal(_decode(backend, code, pages[::-1]), reference[::-1])
        assert np.array_equal(pages, before)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_decode_batch_is_one_backend_call(
    backend, variant, vcell_levels, monkeypatch
) -> None:
    """``decode_batch`` hands its pages to its backend's ``decode`` once,
    and ``decode`` is its one-page view."""
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    code = _make_code(variant, vcell_levels)
    pages = _random_pages(code, 5, seed=5)
    calls = []
    decode = code.viterbi.backend.decode

    def counted(code, pages):
        calls.append(len(pages))
        return decode(code, pages)

    monkeypatch.setattr(code.viterbi, "backend", dataclasses.replace(
        code.viterbi.backend, decode=counted
    ))
    expected = _decode("numpy", code, pages)
    assert np.array_equal(code.decode_batch(pages), expected)
    assert np.array_equal(code.decode(pages[2]), expected[2])
    assert calls == [5, 1]


# -- levels ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_levels_matches_the_popcount(
    backend, variant, vcell_levels, monkeypatch
) -> None:
    """One page, a batch, a batch whose rows are not adjacent (the pages'
    tail bits lie between them) and views in other layouts."""
    levels = kernels.resolve_backend(backend).levels
    code = _make_code(variant, vcell_levels)
    varray = code.varray
    for lanes in (0, 1, 33):
        pages = _random_pages(code, lanes, seed=lanes)
        cells = pages[:, : varray.used_bits].reshape(
            lanes, varray.num_cells, varray.bits_per_cell
        )
        expected = _popcount(cells)
        for view in (cells, np.asfortranarray(cells), cells[:, ::-1]):
            got = levels(view)
            assert got.dtype == np.int64
            assert np.array_equal(got, _popcount(view))
        assert np.array_equal(levels(cells), expected)
        if lanes:
            assert np.array_equal(levels(cells[0]), expected[0])
    # The code hands its v-cell array the backend it resolved to.
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    with_backend = _make_code(variant, vcell_levels)
    assert with_backend.varray._popcount is with_backend.viterbi.backend.levels


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_byte_that_is_not_a_bit_is_refused_by_every_page_read(
    backend, monkeypatch
) -> None:
    """A page byte of 2 would count as two levels: encoding, decoding,
    reading the levels and programming such a page all refuse it, naming the
    lane and the bit."""
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    code = _make_code("mfc-1/2-1bpc")
    assert code.viterbi.backend.name == backend
    page = code.varray.erased_page()
    page[7] = 2
    data = np.zeros(code.dataword_bits, dtype=np.uint8)
    pages = np.stack([code.varray.erased_page(), page])
    for refused in (
        lambda: code.encode(data, page),
        lambda: code.decode(page),
        lambda: code.varray.levels(page),
        lambda: code.varray.program_levels(page, np.zeros(code.varray.num_cells)),
    ):
        with pytest.raises(VCellError, match="lane 0, bit 7: byte 2 is not a bit"):
            refused()
    for refused in (
        lambda: code.encode_batch(np.stack([data, data]), pages),
        lambda: code.decode_batch(pages),
        lambda: code.varray.levels_batch(pages),
    ):
        with pytest.raises(VCellError, match="lane 1, bit 7"):
            refused()


# -- search_inputs ---------------------------------------------------------------


def _bit_serial(powers, m: int, steps: int, guard: int, datawords) -> np.ndarray:
    """The coset chunks one bit at a time: the syndrome is zero in the guard
    steps and the dataword after them, each stream divided by ``g1`` as
    ``t[n] = s[n] ^ t[n - k] ^ ...`` over its powers ``k >= 1``, and stream
    ``j`` of the representative (``t_1 = 0``) packed at bit ``j``."""
    lanes, width = len(datawords), m - 1
    powers = np.asarray(sorted(powers), dtype=np.int64)
    streams = np.zeros((lanes, steps, width), dtype=np.int64)
    streams[:, guard:] = np.reshape(datawords, (lanes, steps - guard, width))
    for n in range(steps):
        for k in powers[powers <= n]:
            streams[:, n] ^= streams[:, n - k]
    return (streams << np.arange(1, width + 1)).sum(axis=2)


def _bit_serial_chunks(code, datawords) -> np.ndarray:
    """:func:`_bit_serial` of ``code``'s ``g1``, steps and guard."""
    powers = np.flatnonzero(code.code.coefficient_matrix[0][1:]) + 1
    return _bit_serial(
        powers, code.code.num_outputs, code.steps, code.guard_steps, datawords
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_search_inputs_match_the_composition(
    backend, variant, vcell_levels, monkeypatch
) -> None:
    """No lane, one and five; mid-life pages (:func:`_random_pages`) and
    uniformly random bits, tail bits included; the same arrays in other
    layouts and in reverse lane order.  The chunks are the bit-serial
    division's and the levels the twin's count.  The native kernel never
    needs its twin on such input: a kernel that refused it all would pass
    every comparison here through the twin."""
    code = _make_code(variant, vcell_levels)
    rng = np.random.default_rng(19)
    cases = []
    for lanes in (0, 1, 5):
        data = rng.integers(0, 2, (lanes, code.dataword_bits), dtype=np.uint8)
        cases += [
            (data, _random_pages(code, lanes, seed=lanes)),
            (data, rng.integers(0, 2, (lanes, PAGE_BITS), dtype=np.uint8)),
        ]
    expected = [kernels._search_inputs_numpy(code, *case) for case in cases]
    if backend != "numpy":

        def no_twin(*_args):
            raise AssertionError("the kernel refused valid input")

        monkeypatch.setattr(kernels, "_search_inputs_numpy", no_twin)
    search_inputs = kernels.resolve_backend(backend).search_inputs
    for (data, pages), (chunks, levels) in zip(cases, expected):
        before = data.copy(), pages.copy()
        assert chunks.dtype == levels.dtype == np.int64
        assert chunks.shape == (len(data), code.steps)
        assert np.array_equal(chunks, _bit_serial_chunks(code, data))
        assert np.array_equal(levels, _popcount(code.varray._cells(pages)))
        for data_view, pages_view in zip(_views(data), _views(pages)):
            got_chunks, got_levels = search_inputs(code, data_view, pages_view)
            assert got_chunks.dtype == got_levels.dtype == np.int64
            assert np.array_equal(got_chunks, chunks)
            assert np.array_equal(got_levels, levels)
        got_chunks, got_levels = search_inputs(code, data[::-1], pages[::-1])
        assert np.array_equal(got_chunks, chunks[::-1])
        assert np.array_equal(got_levels, levels[::-1])
        assert all(map(np.array_equal, (data, pages), before))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("key", list_codes())
def test_chunks_match_a_bit_serial_division(backend, key) -> None:
    """Every registry code, on pages of one step past the guard region, of
    data bits either side of the eight a table lookup takes, and of many
    steps."""
    denominator, constraint_length = key
    search_inputs = kernels.resolve_backend(backend).search_inputs
    rng = np.random.default_rng(sum(key))
    guard = 2 * (constraint_length - 1)
    for steps in (guard + 1, guard + 7, guard + 8, guard + 9, 65, 683):
        # 4-level cells of three bits, one bit per cell: m cells a step.
        code = ConvolutionalCosetCode(
            page_bits=steps * denominator * 3 + 2,
            rate_denominator=denominator, constraint_length=constraint_length,
        )
        assert code.steps == steps
        for lanes in (0, 1, 33):
            data = rng.integers(0, 2, (lanes, code.dataword_bits), dtype=np.uint8)
            pages = np.zeros((lanes, code.page_bits), dtype=np.uint8)
            chunks, _levels = search_inputs(code, data, pages)
            assert np.array_equal(chunks, _bit_serial_chunks(code, data))


@needs_native
@settings(max_examples=60, deadline=None)
@given(
    # g1's powers up to the 63 a 64-tap code has; m - 1 interleaved streams,
    # so tap k of g1 is tap k * (m - 1) of the one register.
    powers=st.sets(st.integers(1, 63), max_size=6),
    m=st.integers(2, 6),
    guard=st.integers(0, 12),
    # Steps enough for several table bytes before every tail length 0-7.
    data_steps=st.integers(1, 150),
    lanes=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
# Every tap below 8: a table byte's outputs feed back into that same byte.
@example(powers={1, 2, 5, 7}, m=2, guard=3, data_steps=83, lanes=3, seed=1)
# Tap 64, the register's last bit, then tap 66, which the word cannot hold.
@example(powers={32}, m=3, guard=0, data_steps=150, lanes=2, seed=5)
@example(powers={33}, m=3, guard=0, data_steps=150, lanes=2, seed=5)
def test_native_division_property(powers, m, guard, data_steps, lanes, seed) -> None:
    """The native chunks of any ``g1`` the register holds in one 64-bit word
    are the bit-serial division's; a tap past 64 is refused, and the twin
    then divides."""
    library = kernels._bind(kernels._load_native())
    steps = guard + data_steps
    data = np.random.default_rng(seed).integers(
        0, 2, (lanes, data_steps * (m - 1)), dtype=np.uint8
    )
    generators = np.ones(m, dtype=np.uint64)
    generators[0] = sum(1 << k for k in powers) | 1
    pages = np.zeros((lanes, 3), dtype=np.uint8)  # one empty cell each
    out = np.empty(lanes * (steps + 1), dtype=np.int64)
    chunks = out[: lanes * steps].reshape(lanes, steps)
    levels = out[lanes * steps :]
    block = kernels.ParameterBlock(
        "page", page_bits=3, num_cells=1, width=3, steps=steps, per_step=m,
        bpc=1, guard=guard, taps=64, generators=generators, target_of=None,
        read_of=None,
    )
    status = library.search_inputs(
        block.pointer, lanes, data.ctypes.data, pages.ctypes.data,
        out.ctypes.data,
    )
    if max(powers, default=0) * (m - 1) > 64:
        assert status == -2
        return
    assert status == 0
    assert np.array_equal(chunks, _bit_serial(powers, m, steps, guard, data))
    assert not levels.any()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_dataword_byte_above_one_is_refused(backend, monkeypatch) -> None:
    """A uint8 dataword byte of 2 is neither stored as a 0 nor an untyped
    error: ``encode`` raises the ``CodingError`` that names its bit and
    ``encode_batch`` the one that names its lane and bit, as every code's
    intake does."""
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    code = _make_code("mfc-1/2-1bpc")
    assert code.viterbi.backend.name == backend
    data = np.zeros((3, code.dataword_bits), dtype=np.uint8)
    data[1, 5] = 2
    pages = np.zeros((3, PAGE_BITS), dtype=np.uint8)
    with pytest.raises(CodingError, match="dataword bit 5: 2 is not a bit"):
        code.encode(data[1], pages[1])
    with pytest.raises(CodingError, match="dataword lane 1, bit 5: 2 is not a bit"):
        code.encode_batch(data, pages)
    # The kernel refuses it too, where a caller hands it datawords directly.
    with pytest.raises(CodingError, match="lane 1, bit 5"):
        code.viterbi.backend.search_inputs(code, data, pages)
    data[1, 5] = 0
    data[2, -1] = 3  # the last bit: past every whole table byte
    with pytest.raises(CodingError, match=f"lane 2, bit {code.dataword_bits - 1}"):
        code.encode_batch(data, pages)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_scalar_write_checks_its_dataword_once(backend, monkeypatch) -> None:
    """A written uint8 dataword is checked in one pass, by the search inputs
    as they read it: the numpy twin's ``require_bits`` or the kernel's OR of
    its bytes, never a Python pass of ``encode`` or ``encode_batch`` too."""
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    code = _make_code("mfc-1/2-1bpc")
    passes = []
    for module in (coset, page_code, kernels):
        checked = module.require_bits

        def counting(bits, what, checked=checked):
            passes.append(what)
            return checked(bits, what)

        monkeypatch.setattr(module, "require_bits", counting)
    data = np.random.default_rng(5).integers(0, 2, code.dataword_bits, dtype=np.uint8)
    code.encode(data, np.zeros(PAGE_BITS, dtype=np.uint8))
    assert passes == (["dataword"] if backend == "numpy" else [])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant, vcell_levels", CODES)
def test_encode_batch_is_three_backend_calls(
    backend, variant, vcell_levels, monkeypatch
) -> None:
    """A write is one ``search_inputs``, one ``search`` and one ``program``
    call, whatever its lane count.  Under native no level count runs; on
    numpy (also a searcher too large for native's tables) the twins count
    the pages' levels inside ``search_inputs`` and, to check the targets,
    inside ``program``."""
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    code = _make_code(variant, vcell_levels)
    calls = []

    def counted(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)

        return call

    kernel = code.viterbi.backend
    stages = ("search_inputs", "search", "program", "decode", "levels")
    monkeypatch.setattr(code.viterbi, "backend", dataclasses.replace(
        kernel, **{name: counted(name, getattr(kernel, name)) for name in stages}
    ))
    monkeypatch.setattr(
        code.varray, "_popcount", counted("levels", code.varray._popcount)
    )
    rng = np.random.default_rng(23)
    pages = _random_pages(code, 5, seed=6)
    data = rng.integers(0, 2, (5, code.dataword_bits), dtype=np.uint8)
    write = ["search_inputs", "search", "program"]
    if code.viterbi.backend.name == "numpy":
        write = ["search_inputs", "levels", "search", "program", "levels"]
    code.encode_batch(data, pages)
    assert calls == write
    calls.clear()
    code.encode_batch(data[:1], np.zeros((1, PAGE_BITS), dtype=np.uint8))
    assert calls == write


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_write_leaves_the_last_writes_levels_and_costs_as_they_were(
    backend, monkeypatch
) -> None:
    """The ``last_write_levels`` and ``last_write_costs`` a write leaves are
    unchanged by the next write, one page or three at a time: each write
    makes new arrays of them.  The lifetime simulators keep them per write
    for the Fig. 15/16 trace, which a reused buffer would rewrite."""
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    code = _make_code("mfc-1/2-1bpc")
    assert code.viterbi.backend.name == backend
    rng = np.random.default_rng(31)
    for lanes in (None, 3):
        shape = (code.dataword_bits,) if lanes is None else (lanes, code.dataword_bits)
        pages = np.zeros(shape[:-1] + (code.page_bits,), dtype=np.uint8)
        kept = []
        for _write in range(3):
            data = rng.integers(0, 2, shape, dtype=np.uint8)
            if lanes is None:
                pages = code.encode(data, pages)
            else:
                pages, writable = code.encode_batch(data, pages)
                assert writable.all()
            levels, costs = code.last_write_levels, code.last_write_costs
            counted = code.varray.levels_batch(pages.reshape(-1, code.page_bits))
            assert np.array_equal(levels, counted)
            kept.append((levels, levels.copy(), costs, costs.copy()))
        for levels, levels_then, costs, costs_then in kept:
            assert levels.tobytes() == levels_then.tobytes()
            assert costs.tobytes() == costs_then.tobytes()
        assert not np.array_equal(kept[0][1], kept[-1][1])  # the writes differ


@needs_native
def test_bound_blocks_outlive_other_codes_and_refuse_other_shapes(monkeypatch) -> None:
    """A code's parameter block keeps its tables alive: after a collection
    and other codes built and dropped, its native encode and decode are
    still the numpy twin's, byte for byte.  Arrays of another code's shape
    are refused by each stage, and the twin raises the error that names
    them."""
    import gc

    from repro.coding.wom import WomVCellCode

    def built(backend):
        monkeypatch.setenv(kernels.BACKEND_ENV, backend)
        code = ConvolutionalCosetCode(
            page_bits=PAGE_BITS, rate_denominator=3, constraint_length=5,
        )
        assert code.viterbi.backend.name == backend
        return code

    twin, native = built("numpy"), built("native")
    gc.collect()
    for page_bits in (301, 4099, 777):
        for other in (
            ConvolutionalCosetCode(page_bits=page_bits, rate_denominator=2),
            WomVCellCode(page_bits, backend="native"),
        ):
            other.encode_batch(
                np.zeros((2, other.dataword_bits), dtype=np.uint8),
                np.zeros((2, page_bits), dtype=np.uint8),
            )
        del other
        gc.collect()
    rng = np.random.default_rng(5)
    pages = _random_pages(native, 4, seed=8)
    for _write in range(3):
        data = rng.integers(0, 2, (4, native.dataword_bits), dtype=np.uint8)
        got, writable = native.encode_batch(data, pages)
        expected, expected_writable = twin.encode_batch(data, pages)
        assert got.tobytes() == expected.tobytes()
        assert writable.tobytes() == expected_writable.tobytes()
        assert native.last_write_levels.tobytes() == twin.last_write_levels.tobytes()
        assert native.decode_batch(got).tobytes() == twin.decode_batch(got).tobytes()
        pages = got

    other = ConvolutionalCosetCode(page_bits=PAGE_BITS + 3, rate_denominator=3)
    kernel = native.viterbi.backend
    data = np.zeros((2, native.dataword_bits), dtype=np.uint8)
    wrong = np.zeros((2, other.page_bits), dtype=np.uint8)
    with pytest.raises(VCellError, match="pages, got shape"):
        kernel.search_inputs(native, data, wrong)
    with pytest.raises(CodingError, match=r"dataword lane 0, bit \d+: 2"):
        kernel.search_inputs(native, np.full((2, 9), 2, np.uint8), wrong)
    with pytest.raises(VCellError, match="pages, got shape"):
        kernel.decode(native, wrong)
    chunks, levels = kernel.search_inputs(native, data, pages[:2])
    result = native.viterbi.search_batch(
        chunks, levels[:, : native.used_cells].reshape(2, native.steps, -1)
    )
    with pytest.raises(VCellError, match="pages, got shape"):
        kernel.program(native, wrong, levels, result)
    short = levels[:, : native.used_cells - native.cells_per_step].reshape(
        2, native.steps - 1, -1
    )
    with pytest.raises((ValueError, IndexError)):
        kernel.search(native.viterbi, chunks, short)
