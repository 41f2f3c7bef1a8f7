"""What every page code takes as a dataword.

``PageCode._datawords`` is the one intake of every page code: the MFC
coset code, the WOM code, the Hamming-protected coset code, rank
modulation, the waterfall code and the two baselines' identity and
replication codes.  A dataword must hold only bits before it is narrowed:
as uint8, 0.7 is a 0 and 1.7 a 1, and a uint8 byte of 2 is no bit either,
which used to be stored and read back as data nobody wrote.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import ConvolutionalCosetCode, WomVCellCode, kernels
from repro.coding.ecc_coset import EccIntegratedCosetCode
from repro.coding.rank_modulation import RankModulationCode
from repro.coding.waterfall import WaterfallCode
from repro.core import available_schemes, make_scheme
from repro.core.redundancy import ReplicationCode
from repro.core.uncoded import IdentityCode
from repro.errors import CodingError, ReproError

PAGE = 192

CODES = {
    "mfc-1/2-1bpc": lambda: ConvolutionalCosetCode(PAGE, constraint_length=3),
    "mfc-1/2-2bpc": lambda: ConvolutionalCosetCode(
        PAGE, constraint_length=3, bits_per_cell=2
    ),
    "wom": lambda: WomVCellCode(PAGE),
    "mfc+hamming": lambda: EccIntegratedCosetCode(PAGE, constraint_length=3),
    "rank-modulation": lambda: RankModulationCode(PAGE),
    "waterfall": lambda: WaterfallCode(PAGE),
    "identity": lambda: IdentityCode(PAGE),
    "replication": lambda: ReplicationCode(PAGE, copies=2),
}

#: A dataword entry of each kind that is not a bit.
NOT_BITS = [
    (0.7, np.float64), (1.7, np.float64), (256, np.int64), (-1, np.int8),
    (2, np.uint8),
]


@pytest.fixture(params=kernels.available_backends())
def backend(request, monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV, request.param)
    return request.param


@pytest.mark.parametrize("name", CODES)
@pytest.mark.parametrize("value, dtype", NOT_BITS)
def test_a_dataword_that_is_not_bits_is_refused(backend, name, value, dtype) -> None:
    code = CODES[name]()
    page = np.zeros(code.page_bits, np.uint8)
    data = np.zeros(code.dataword_bits, dtype)
    data[3] = value
    with pytest.raises(CodingError, match=f"dataword bit 3: {value} is not a bit"):
        code.encode(data, page)
    datawords = np.zeros((2, code.dataword_bits), dtype)
    datawords[1, 4] = value
    # A code without a batch body of its own names the bit in the lane.
    with pytest.raises(CodingError, match=f"dataword (lane 1, )?bit 4: {value} is"):
        code.encode_batch(datawords, np.stack([page, page]))


@pytest.mark.parametrize("name", available_schemes())
@pytest.mark.parametrize(
    "value, dtype", [(257, np.int64), (0.9, np.float64), (2, np.uint8)]
)
def test_a_scheme_writes_a_batch_as_its_code_does(backend, name, value, dtype) -> None:
    """``PageCodeScheme.write`` and ``write_batch`` hand their datawords to
    the code as they are: an int64 257 is refused, not narrowed to a 1 and
    stored, and so is any other entry that is not a bit."""
    kwargs = {"constraint_length": 3} if name.startswith("mfc") else {}
    scheme = make_scheme(name, PAGE, **kwargs)
    datawords = np.zeros((2, scheme.dataword_bits), dtype=dtype)
    datawords[1, 4] = value
    with pytest.raises(CodingError, match=f"dataword bit 4: {value} is not a bit"):
        scheme.write(scheme.fresh_state(), datawords[1])
    with pytest.raises(CodingError, match=f"dataword (lane 1, )?bit 4: {value} is"):
        scheme.write_batch(scheme.fresh_states(2), datawords)
    datawords[1, 4] = 1
    states, writable = scheme.write_batch(scheme.fresh_states(2), datawords)
    assert writable.all()
    assert np.array_equal(scheme.read_batch(states), datawords)
    state = scheme.write(scheme.fresh_state(), datawords[1])
    assert np.array_equal(scheme.read(state), datawords[1])


@pytest.mark.parametrize("name", CODES)
def test_datawords_and_pages_must_pair_up(backend, name) -> None:
    """A batch is refused, not broadcast or read as more lanes, when its
    datawords and pages differ in number or a page is not ``page_bits``."""
    code = CODES[name]()
    one = np.ones((1, code.dataword_bits), np.uint8)
    with pytest.raises(CodingError, match="1 datawords for 3 pages"):
        code.encode_batch(one, np.zeros((3, code.page_bits), np.uint8))
    # A code over v-cells may refuse the width there, as a VCellError.
    wide = np.zeros((1, 2 * code.page_bits), np.uint8)
    with pytest.raises(ReproError, match="page"):
        code.encode_batch(one, wide)
    with pytest.raises(ReproError, match="page"):
        code.encode(one[0], wide[0])


@pytest.mark.parametrize("name", CODES)
def test_bits_of_any_dtype_store_as_their_uint8_form(backend, name) -> None:
    code = CODES[name]()
    page = np.zeros(code.page_bits, np.uint8)
    data = np.random.default_rng(7).integers(0, 2, code.dataword_bits, dtype=np.uint8)
    written = code.encode(data, page)
    for dtype in (bool, np.int64, np.float32):
        assert np.array_equal(code.encode(data.astype(dtype), page), written)
        assert np.array_equal(code.encode(data.tolist(), page), written)
    assert np.array_equal(code.decode(written), data)
