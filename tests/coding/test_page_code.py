"""What every page code takes as a dataword.

``PageCode._datawords`` is the one intake of every page code: the MFC
coset code, the WOM code, the Hamming-protected coset code, rank
modulation and the waterfall code.  A dataword that is not uint8
must hold only bits before it is narrowed: as uint8, 0.7 is a 0 and 1.7 a
1, which used to be stored and read back as data nobody wrote.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import ConvolutionalCosetCode, WomVCellCode, kernels
from repro.coding.ecc_coset import EccIntegratedCosetCode
from repro.coding.rank_modulation import RankModulationCode
from repro.coding.waterfall import WaterfallCode
from repro.core import make_scheme
from repro.errors import CodingError

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
}


@pytest.fixture(params=kernels.available_backends())
def backend(request, monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV, request.param)
    return request.param


@pytest.mark.parametrize("name", CODES)
@pytest.mark.parametrize(
    "value, dtype", [(0.7, np.float64), (1.7, np.float64), (256, np.int64), (-1, np.int8)]
)
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


@pytest.mark.parametrize(
    "name, kwargs", [("wom", {}), ("mfc-1/2-1bpc", {"constraint_length": 3})]
)
def test_a_scheme_writes_a_batch_as_its_code_does(backend, name, kwargs) -> None:
    """``PageCodeScheme.write_batch`` hands its datawords to the code as they
    are: an int64 257 is refused, not narrowed to a 1 and stored."""
    scheme = make_scheme(name, PAGE, **kwargs)
    datawords = np.zeros((2, scheme.dataword_bits), dtype=np.int64)
    datawords[1, 4] = 257
    with pytest.raises(CodingError, match="dataword (lane 1, )?bit 4: 257 is"):
        scheme.write_batch(scheme.fresh_states(2), datawords)
    datawords[1, 4] = 1
    states, writable = scheme.write_batch(scheme.fresh_states(2), datawords)
    assert writable.all()
    assert np.array_equal(scheme.read_batch(states), datawords)


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
