"""Bit-identity of the WOM kernel against its numpy twin.

``WomVCellCode`` runs every encode and decode through the kernel backend it
resolves when it is built (``KernelBackend.wom_encode``/``wom_decode``).
The numpy backend's pair is the reference: every other available backend
must return the same pages, writability and datawords, and refuse the same
inputs with the same exception and message.  ``make kernel-sanitize`` runs
this file under ASan + UBSan: the native entries take raw pointers.
"""

from __future__ import annotations

import platform

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import kernels
from repro.coding.wom import WOM_NEXT_PATTERN, WOM_VALUE_OF_PATTERN, WomVCellCode
from repro.errors import CodingError, UnwritableError

from tests.coding.test_viterbi_kernel import _cpu_flags

BACKENDS = kernels.available_backends()
#: The backends pinned to numpy's pair.
OTHERS = [name for name in BACKENDS if name != "numpy"]

needs_native = pytest.mark.skipif(
    "native" not in BACKENDS, reason="no C compiler here"
)

#: 0, 1 and 2 tail bits each, at 4 cells, 24 and 1365 (a 4 KB page).
PAGE_SIZES = [12, 13, 14, 72, 73, 74, 4096, 4097, 4098]

#: Cell counts that are no multiple of sixteen, whose last cells the native
#: kernel's AVX2 bodies leave to its plain loop: 23, 37 and 1365 cells.
VECTOR_AND_TAIL = [3 * 23 + 2, 3 * 37, 4096]


def _written_pages(page_bits: int, lanes: int, writes: int, seed: int) -> np.ndarray:
    """Pages after ``writes`` random batch writes through the reference, and
    random tail bits: late in a history many lanes have a stuck cell."""
    code = WomVCellCode(page_bits, backend="numpy")
    rng = np.random.default_rng(seed)
    pages = np.zeros((lanes, page_bits), dtype=np.uint8)
    for _ in range(writes):
        data = rng.integers(0, 2, (lanes, code.dataword_bits), dtype=np.uint8)
        pages = code.encode_batch(data, pages)[0]
    pages[:, code.varray.used_bits:] = rng.integers(
        0, 2, (lanes, page_bits - code.varray.used_bits)
    )
    return pages


def _assert_same_write(reference, other, datawords, pages) -> None:
    """Both faces of ``other`` against ``reference``'s."""
    expected, expected_ok = reference.encode_batch(datawords, pages)
    got, ok = other.encode_batch(datawords, pages)
    assert got.dtype == np.uint8 and ok.dtype == bool
    assert got.shape == pages.shape and ok.shape == (len(pages),)
    assert np.array_equal(got, expected) and np.array_equal(ok, expected_ok)
    assert np.array_equal(other.decode_batch(pages), reference.decode_batch(pages))
    for lane in range(len(pages)):
        if expected_ok[lane]:
            page = other.encode(datawords[lane], pages[lane])
            assert page.shape == pages[lane].shape
            assert np.array_equal(page, expected[lane])
        else:
            with pytest.raises(UnwritableError, match="no reachable pattern"):
                other.encode(datawords[lane], pages[lane])
        assert np.array_equal(
            other.decode(pages[lane]), reference.decode(pages[lane])
        )


@pytest.mark.parametrize("backend", OTHERS)
@pytest.mark.parametrize("page_bits", PAGE_SIZES)
@pytest.mark.parametrize("lanes", [0, 1, 7])
def test_kernel_matches_the_twin(backend, page_bits, lanes) -> None:
    reference = WomVCellCode(page_bits, backend="numpy")
    other = WomVCellCode(page_bits, backend=backend)
    rng = np.random.default_rng(page_bits * 8 + lanes)
    for writes in range(4):
        pages = _written_pages(page_bits, lanes, writes, seed=writes)
        datawords = rng.integers(0, 2, (lanes, reference.dataword_bits), dtype=np.uint8)
        _assert_same_write(reference, other, datawords, pages)


@given(
    page_bits=st.sampled_from(PAGE_SIZES[:6]),
    lanes=st.integers(0, 6),
    writes=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_page_histories_agree(page_bits, lanes, writes, seed) -> None:
    """Every backend walks the same random histories, write by write."""
    codes = {name: WomVCellCode(page_bits, backend=name) for name in BACKENDS}
    rng = np.random.default_rng(seed)
    pages = {name: np.zeros((lanes, page_bits), np.uint8) for name in BACKENDS}
    for _ in range(writes):
        data = rng.integers(0, 2, (lanes, codes["numpy"].dataword_bits), dtype=np.uint8)
        written = {
            name: code.encode_batch(data, pages[name]) for name, code in codes.items()
        }
        expected_pages, expected_ok = written["numpy"]
        assert np.array_equal(
            codes["numpy"].decode_batch(expected_pages)[expected_ok], data[expected_ok]
        )
        for name in OTHERS:
            assert np.array_equal(written[name][0], expected_pages)
            assert np.array_equal(written[name][1], expected_ok)
            assert np.array_equal(
                codes[name].decode_batch(expected_pages),
                codes["numpy"].decode_batch(expected_pages),
            )
        pages = {name: page for name, (page, _ok) in written.items()}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_stuck_lane_keeps_its_bits_between_writable_ones(backend) -> None:
    code = WomVCellCode(74, backend=backend)  # 24 cells, two tail bits
    rng = np.random.default_rng(5)
    pages = np.zeros((3, 74), np.uint8)
    pages[:, 72:] = 1
    pages[1, 30:33] = 1  # cell 10 of lane 1 saturated at 111 (value 00) ...
    datawords = rng.integers(0, 2, (3, code.dataword_bits), dtype=np.uint8)
    datawords[1, 20:22] = (1, 0)  # ... and asked for value 01
    new_pages, writable = code.encode_batch(datawords, pages)
    assert writable.tolist() == [True, False, True]
    assert np.array_equal(new_pages[1], pages[1])
    for lane in (0, 2):
        assert np.array_equal(new_pages[lane], code.encode(datawords[lane], pages[lane]))
        assert new_pages[lane, 72:].tolist() == [1, 1]
        assert np.array_equal(code.decode(new_pages[lane]), datawords[lane])
    before = pages[1].copy()
    with pytest.raises(UnwritableError, match="erase required"):
        code.encode(datawords[1], pages[1])
    assert np.array_equal(pages[1], before)


@pytest.mark.parametrize("backend", BACKENDS)
def test_strided_and_non_uint8_inputs_read_as_their_bits(backend) -> None:
    code = WomVCellCode(73, backend=backend)
    pages = _written_pages(73, 5, 2, seed=3)
    datawords = np.random.default_rng(4).integers(
        0, 2, (5, code.dataword_bits), dtype=np.uint8
    )
    expected = code.encode_batch(datawords, pages)
    decoded = code.decode_batch(pages)
    wide = np.zeros((10, 146), np.uint8)  # every other row and column
    wide[::2, ::2] = pages
    wide_data = np.zeros((5, 2 * code.dataword_bits), np.uint8)
    wide_data[:, 1::2] = datawords
    layouts = [
        (datawords[::-1], pages[::-1], slice(None, None, -1)),
        (wide_data[:, 1::2], wide[::2, ::2], slice(None)),
        (np.asfortranarray(datawords), np.asfortranarray(pages), slice(None)),
        (datawords.astype(np.int64), pages.astype(bool), slice(None)),
        (datawords.astype(np.float64), pages.astype(np.float32), slice(None)),
    ]
    for data, bits, order in layouts:
        new_pages, writable = code.encode_batch(data, bits)
        assert np.array_equal(new_pages, expected[0][order])
        assert np.array_equal(writable, expected[1][order])
        assert np.array_equal(code.decode_batch(bits), decoded[order])
        assert np.array_equal(code.decode(bits[2]), decoded[order][2])
        if expected[1][order][2]:
            assert np.array_equal(code.encode(data[2], bits[2]), expected[0][order][2])


def _refusal(action) -> tuple[type, str]:
    with pytest.raises(CodingError) as caught:
        action()
    return type(caught.value), str(caught.value)


def _not_bits(code) -> dict[str, object]:
    """Writes and reads of bytes that are not bits, by what they hold."""
    page = np.zeros(code.page_bits, np.uint8)
    data = np.zeros(code.dataword_bits, np.uint8)

    def put(array, index, value, dtype=None):
        array = array.astype(dtype or array.dtype)
        array[index] = value
        return array

    pages, datawords = np.stack([page] * 3), np.stack([data] * 3)
    return {
        "decode a 2": lambda: code.decode(put(page, 0, 2)),
        "decode a 2 in the tail": lambda: code.decode(put(page, -1, 2)),
        "decode 0.9": lambda: code.decode(np.full(code.page_bits, 0.9)),
        "encode a 3": lambda: code.encode(put(data, 0, 3), page),
        "encode 1.7": lambda: code.encode(put(data, 5, 1.7, float), page),
        "encode 256": lambda: code.encode(put(data, 1, 256, np.int64), page),
        "encode onto a 2": lambda: code.encode(data, put(page, 0, 2)),
        "encode onto a 2 in the tail": lambda: code.encode(data, put(page, -1, 2)),
        "encode onto -1": lambda: code.encode(data, put(page, 4, -1, np.int8)),
        "batch decode a 2": lambda: code.decode_batch(put(pages, (2, 7), 2)),
        "batch encode a 3": lambda: code.encode_batch(put(datawords, (1, 3), 3), pages),
        "batch encode onto a 255": lambda: code.encode_batch(
            datawords, put(pages, (2, 9), 255)
        ),
        "batch decode 0.5": lambda: code.decode_batch(put(pages, (1, 2), 0.5, float)),
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_bytes_that_are_not_bits_are_refused(backend) -> None:
    """What used to narrow silently: a page byte 2 read as pattern 010, a
    dataword 3 stored as value 3, a 2 overwritten by a 1, 0.9 read as 0."""
    code = WomVCellCode(14, backend=backend)
    for name, action in _not_bits(code).items():
        kind, message = _refusal(action)
        assert kind is CodingError, name
        assert "is not a bit" in message, name
    assert _refusal(lambda: code.decode(np.array([2] + [0] * 13, np.uint8)))[1] == (
        "page bit 0: 2 is not a bit"
    )
    assert _refusal(
        lambda: code.encode_batch(np.full((2, 8), 1.5), np.zeros((2, 14)))
    )[1] == "dataword lane 0, bit 0: 1.5 is not a bit"


@pytest.mark.parametrize("backend", OTHERS)
@pytest.mark.parametrize("page_bits", [14, 74])
def test_refusals_read_the_same_under_every_backend(backend, page_bits) -> None:
    reference = _not_bits(WomVCellCode(page_bits, backend="numpy"))
    other = _not_bits(WomVCellCode(page_bits, backend=backend))
    for name in reference:
        assert _refusal(other[name]) == _refusal(reference[name]), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_shapes_are_checked_before_the_kernel(backend) -> None:
    code = WomVCellCode(14, backend=backend)
    with pytest.raises(CodingError, match="3 datawords for 2 pages"):
        code.encode_batch(np.zeros((3, 8), np.uint8), np.zeros((2, 14), np.uint8))
    with pytest.raises(CodingError, match="pages, got shape"):
        code.decode_batch(np.zeros((2, 15), np.uint8))
    with pytest.raises(CodingError, match="a page of 14 bits"):
        code.encode(np.zeros(8, np.uint8), np.zeros((1, 14), np.uint8))


@needs_native
@pytest.mark.parametrize("page_bits", PAGE_SIZES)
def test_native_needs_no_twin_on_valid_input(page_bits, monkeypatch) -> None:
    """The twin runs only after the kernel refused a byte."""
    reference = WomVCellCode(page_bits, backend="numpy")
    data = np.ones((4, reference.dataword_bits), np.uint8)
    histories = [_written_pages(page_bits, 4, writes, seed=writes) for writes in range(4)]
    expected = [reference.encode_batch(data, pages) for pages in histories]
    decoded = [reference.decode_batch(pages) for pages in histories]

    def twin(*_args):
        raise AssertionError("the native kernel fell back to its twin")

    monkeypatch.setattr(kernels, "_wom_encode_numpy", twin)
    monkeypatch.setattr(kernels, "_wom_decode_numpy", twin)
    native = WomVCellCode(page_bits, backend="native")
    for pages, (new_pages, writable), datawords in zip(histories, expected, decoded):
        got = native.encode_batch(data, pages)
        assert np.array_equal(got[0], new_pages) and np.array_equal(got[1], writable)
        assert np.array_equal(native.decode_batch(pages), datawords)
        assert np.array_equal(native.decode(pages[0]), datawords[0])


def test_the_code_resolves_its_backend_and_binds_its_tables(monkeypatch) -> None:
    monkeypatch.setenv(kernels.BACKEND_ENV, "numpy")
    code = WomVCellCode(12)
    assert code.backend is kernels.resolve_backend("numpy")
    for name in BACKENDS:
        assert WomVCellCode(12, backend=name).backend.name == name
    next_pattern, value_of = code._block.tables.values()
    assert next_pattern.dtype == value_of.dtype == np.int8
    assert np.array_equal(next_pattern, WOM_NEXT_PATTERN.reshape(-1))
    assert np.array_equal(value_of, WOM_VALUE_OF_PATTERN)
    assert code._block.fields.tolist() == [
        12, code.num_cells, next_pattern.ctypes.data, value_of.ctypes.data,
    ]


@needs_native
@pytest.mark.skipif(
    platform.machine() != "x86_64" or "avx2" not in _cpu_flags(),
    reason="the vector body is for x86-64 CPUs whose /proc/cpuinfo lists avx2",
)
def test_wom_cells_take_the_sixteen_cell_body_where_the_cpu_has_avx2() -> None:
    """A WOM cell is 3 bits holding 2: a fallback to the plain loop returns
    the same bytes, slower, and only this test sees it."""
    library = kernels._bind(kernels._load_native())
    assert library.page_vector_body(3, WomVCellCode.BITS_PER_VALUE) == 1


@pytest.mark.parametrize("backend", OTHERS)
@pytest.mark.parametrize("page_bits", VECTOR_AND_TAIL)
@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("where", ["vector", "tail"])
def test_stuck_cells_and_non_bits_in_the_vector_part_and_the_tail(
    backend, page_bits, lanes, where
) -> None:
    """A stuck cell, a page byte that is not a bit and a dataword byte that
    is not a bit, each in a cell of the sixteen-cell part and in one of the
    cells past it, in the last lane."""
    reference = WomVCellCode(page_bits, backend="numpy")
    other = WomVCellCode(page_bits, backend=backend)
    cells = reference.num_cells
    assert cells % 16
    cell = 5 if where == "vector" else cells - 2
    assert (cell < cells // 16 * 16) == (where == "vector")
    rng = np.random.default_rng(page_bits + lanes)
    pages = _written_pages(page_bits, lanes, 2, seed=lanes)
    datawords = rng.integers(0, 2, (lanes, reference.dataword_bits), dtype=np.uint8)
    pages[-1, 3 * cell : 3 * cell + 3] = 1  # saturated at 111 (value 00) ...
    datawords[-1, 2 * cell : 2 * cell + 2] = (1, 0)  # ... and asked for 01
    _assert_same_write(reference, other, datawords, pages)
    assert not other.encode_batch(datawords, pages)[1][-1]
    bad_pages, bad_data = pages.copy(), datawords.copy()
    bad_pages[-1, 3 * cell + 1] = 2
    bad_data[-1, 2 * cell + 1] = 3
    for code in (reference, other):
        assert _refusal(lambda: code.encode_batch(datawords, bad_pages)) == (
            CodingError, f"page lane {lanes - 1}, bit {3 * cell + 1}: 2 is not a bit"
        )
        assert _refusal(lambda: code.encode_batch(bad_data, pages)) == (
            CodingError,
            f"dataword lane {lanes - 1}, bit {2 * cell + 1}: 3 is not a bit",
        )
        assert _refusal(lambda: code.decode_batch(bad_pages)) == (
            CodingError, f"page lane {lanes - 1}, bit {3 * cell + 1}: 2 is not a bit"
        )
        assert _refusal(lambda: code.encode(bad_data[-1], pages[-1])) == (
            CodingError, f"dataword bit {2 * cell + 1}: 3 is not a bit"
        )
        assert _refusal(lambda: code.decode(bad_pages[-1])) == (
            CodingError, f"page bit {3 * cell + 1}: 2 is not a bit"
        )
