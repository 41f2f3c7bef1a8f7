"""Tests for the syndrome former and coset representatives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import get_code, list_codes
from repro.coding.bitops import gf2_convolve_axis, gf2_divide_causal
from repro.coding.syndrome import SyndromeFormer
from repro.errors import CodingError

KEYS = [(2, 3), (2, 7), (3, 4), (4, 3), (5, 3)]


@pytest.mark.parametrize("key", KEYS)
class TestSyndromeFormer:
    def test_codewords_have_zero_syndrome(self, key) -> None:
        code = get_code(*key)
        former = SyndromeFormer(code)
        rng = np.random.default_rng(11)
        info = rng.integers(0, 2, 48).astype(np.uint8)
        streams = code.encode(info).reshape(-1, code.num_outputs)
        assert former.syndrome(streams).sum() == 0

    def test_representative_achieves_syndrome(self, key) -> None:
        code = get_code(*key)
        former = SyndromeFormer(code)
        rng = np.random.default_rng(13)
        target = rng.integers(0, 2, (32, code.num_outputs - 1)).astype(np.uint8)
        rep = former.representative(target)
        assert np.array_equal(former.syndrome(rep), target)

    def test_coset_shift_invariance(self, key) -> None:
        """syndrome(t XOR c) == syndrome(t) for any codeword c."""
        code = get_code(*key)
        former = SyndromeFormer(code)
        rng = np.random.default_rng(17)
        steps = 32
        target = rng.integers(0, 2, (steps, code.num_outputs - 1)).astype(np.uint8)
        rep = former.representative(target)
        info = rng.integers(0, 2, steps).astype(np.uint8)
        codeword = code.encode(info).reshape(steps, code.num_outputs)
        assert np.array_equal(former.syndrome(rep ^ codeword), target)

    def test_first_stream_of_representative_is_zero(self, key) -> None:
        code = get_code(*key)
        former = SyndromeFormer(code)
        target = np.ones((16, code.num_outputs - 1), np.uint8)
        rep = former.representative(target)
        assert rep[:, 0].sum() == 0


class TestShapes:
    def test_syndrome_rejects_bad_shapes(self) -> None:
        former = SyndromeFormer(get_code(2, 3))
        with pytest.raises(CodingError):
            former.syndrome(np.zeros((4, 3), np.uint8))
        with pytest.raises(CodingError):
            former.representative(np.zeros((4, 2), np.uint8))

    def test_syndrome_bits_per_step(self) -> None:
        assert SyndromeFormer(get_code(5, 3)).syndrome_bits_per_step == 4


class TestProperties:
    @given(
        data=st.data(),
        key=st.sampled_from(KEYS),
        steps=st.integers(4, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_representative_roundtrip_property(self, data, key, steps) -> None:
        code = get_code(*key)
        former = SyndromeFormer(code)
        bits = data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=steps * (code.num_outputs - 1),
                max_size=steps * (code.num_outputs - 1),
            )
        )
        target = np.array(bits, np.uint8).reshape(steps, code.num_outputs - 1)
        rep = former.representative(target)
        assert np.array_equal(former.syndrome(rep), target)


def _divide_term_by_term(numerators: np.ndarray, feedback_taps) -> np.ndarray:
    """Oracle for ``gf2_divide_causal``: ``t[n] = s[n] ^ XOR t[n - tap]``, one
    step at a time (what the function itself was before repeated squaring)."""
    out = np.array(numerators, dtype=np.uint8)
    for n in range(out.shape[-1]):
        for tap in feedback_taps:
            if tap <= n:
                out[..., n] ^= out[..., n - tap]
    return out


def _g1(key) -> tuple[np.ndarray, list[int]]:
    """``g1`` of a registry code: its coefficients and its powers >= 1."""
    coeffs = get_code(*key).coefficient_matrix[0]
    assert coeffs[0] == 1
    return coeffs, [int(tap) for tap in np.flatnonzero(coeffs[1:]) + 1]


#: Around the old 1024-step block boundary, and around powers of two, where
#: the last doubling with ``tap * scale < steps`` changes.
DIVISION_STEPS = [0, 1, 2, 63, 64, 65, 1023, 1024, 1025, 5461]


class TestDivision:
    @pytest.mark.parametrize("lanes", [1, 5])
    @pytest.mark.parametrize("key", list_codes())
    def test_matches_term_by_term_oracle(self, key, lanes) -> None:
        _, taps = _g1(key)
        rng = np.random.default_rng(key[0] * 100 + key[1])
        for steps in DIVISION_STEPS:
            numerators = rng.integers(0, 2, (lanes, 2, steps), dtype=np.uint8)
            quotient = gf2_divide_causal(numerators, np.array(taps))
            assert quotient.dtype == np.uint8
            assert quotient.shape == numerators.shape
            assert np.array_equal(quotient, _divide_term_by_term(numerators, taps))

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.uint8])
    @pytest.mark.parametrize("key", [(2, 7), (4, 3), (5, 7)])
    def test_strided_and_typed_inputs(self, key, dtype) -> None:
        """The step axis arrives non-contiguous from ``representative_batch``."""
        _, taps = _g1(key)
        rng = np.random.default_rng(5)
        block = rng.integers(0, 2, (3, 1025, 4)).astype(dtype)
        view = block.transpose(0, 2, 1)[:, ::2, :]
        assert not view.flags.c_contiguous
        before = block.copy()
        quotient = gf2_divide_causal(view, taps)
        assert quotient.flags.c_contiguous and quotient.dtype == np.uint8
        assert np.array_equal(quotient, _divide_term_by_term(view, taps))
        assert np.array_equal(block, before)

    @given(
        data=st.data(),
        key=st.sampled_from(list_codes()),
        steps=st.integers(0, 300),
        lanes=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_quotient_times_g1_is_the_numerator(self, data, key, steps, lanes) -> None:
        coeffs, taps = _g1(key)
        seed = data.draw(st.integers(0, 2**32 - 1))
        numerators = np.random.default_rng(seed).integers(
            0, 2, (lanes, steps), dtype=np.uint8
        )
        quotient = gf2_divide_causal(numerators, taps)
        assert np.array_equal(gf2_convolve_axis(quotient, coeffs, steps), numerators)

    @pytest.mark.parametrize("steps", [0, 1, 1025])
    @pytest.mark.parametrize("key", [(2, 7), (3, 4), (5, 3)])
    def test_representative_batch_divides_each_stream(self, key, steps) -> None:
        code = get_code(*key)
        former = SyndromeFormer(code)
        _, taps = _g1(key)
        syndromes = np.random.default_rng(steps).integers(
            0, 2, (3, steps, code.num_outputs - 1), dtype=np.uint8
        )
        rep = former.representative_batch(syndromes)
        assert rep.shape == (3, steps, code.num_outputs) and rep.dtype == np.uint8
        assert not rep[:, :, 0].any()
        for j in range(code.num_outputs - 1):
            expected = _divide_term_by_term(syndromes[:, :, j], taps)
            assert np.array_equal(rep[:, :, j + 1], expected)
        assert np.array_equal(former.syndrome_batch(rep), syndromes)
