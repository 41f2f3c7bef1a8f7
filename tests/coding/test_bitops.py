"""Tests for bit-manipulation helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.bitops import (
    RandomBits,
    bits_from_bytes,
    bytes_from_bits,
    gf2_convolve_axis,
    pack_values,
    pack_values_axis,
    unpack_values,
    unpack_values_axis,
)


class TestByteBitConversion:
    def test_known_byte(self) -> None:
        bits = bits_from_bytes(b"\x01")
        assert bits.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_roundtrip(self) -> None:
        data = b"methuselah"
        assert bytes_from_bits(bits_from_bytes(data)) == data

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data: bytes) -> None:
        assert bytes_from_bits(bits_from_bytes(data)) == data


class TestPackUnpack:
    def test_pack_lsb_first(self) -> None:
        bits = np.array([1, 0, 0, 1, 1, 0], np.uint8)
        assert pack_values(bits, 3).tolist() == [0b001, 0b011]

    def test_unpack_inverse(self) -> None:
        values = np.array([5, 0, 7])
        assert pack_values(unpack_values(values, 3), 3).tolist() == [5, 0, 7]

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values: list[int]) -> None:
        array = np.array(values)
        assert pack_values(unpack_values(array, 5), 5).tolist() == values


    @pytest.mark.parametrize("width", range(1, 9))
    def test_roundtrip_every_width_against_python(self, width: int) -> None:
        rng = np.random.default_rng(width)
        values = rng.integers(0, 1 << width, 37)
        bits = unpack_values(values, width)
        assert bits.tolist() == [
            (int(value) >> k) & 1 for value in values for k in range(width)
        ]
        assert pack_values(bits, width).tolist() == values.tolist()

    @pytest.mark.parametrize("width", range(1, 9))
    def test_axis_form_equals_scalar_form_per_lane(self, width: int) -> None:
        rng = np.random.default_rng(100 + width)
        bits = rng.integers(0, 2, (3, 5, 4 * width), dtype=np.uint8)
        packed = pack_values_axis(bits, width)
        assert packed.shape == (3, 5, 4)
        unpacked = unpack_values_axis(packed, width)
        assert np.array_equal(unpacked, bits)
        for i in range(3):
            for j in range(5):
                assert np.array_equal(packed[i, j], pack_values(bits[i, j], width))
                assert np.array_equal(
                    unpacked[i, j], unpack_values(packed[i, j], width)
                )

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int8, np.int64])
    def test_result_dtypes_do_not_follow_the_input(self, dtype) -> None:
        """A caller's ``value << k`` on the result must not wrap at 8 bits."""
        bits = np.array([1, 0, 1, 1, 1, 1], dtype=dtype)
        for packed in (pack_values(bits, 3), pack_values_axis(bits[None], 3)[0]):
            assert packed.dtype == np.int64
            assert packed.tolist() == [5, 7]
        values = np.array([5, 7], dtype=np.uint8 if dtype == np.bool_ else dtype)
        for bits_out in (
            unpack_values(values, 3), unpack_values_axis(values[None], 3)[0]
        ):
            assert bits_out.dtype == np.uint8
            assert bits_out.tolist() == [1, 0, 1, 1, 1, 1]

    def test_wide_groups_do_not_overflow(self) -> None:
        bits = np.ones(40, np.uint8)
        assert pack_values(bits, 20).tolist() == [(1 << 20) - 1] * 2
        assert np.array_equal(unpack_values(pack_values(bits, 20), 20), bits)

    def test_strided_and_non_contiguous_inputs(self) -> None:
        rng = np.random.default_rng(7)
        wide = rng.integers(0, 2, (4, 24), dtype=np.uint8)
        view = wide[::2, :18]  # what WomVCellCode hands over: a column slice
        assert not view.flags.c_contiguous
        assert np.array_equal(
            pack_values_axis(view, 3), pack_values_axis(view.copy(), 3)
        )
        every_other = wide[0, ::2]
        assert np.array_equal(
            pack_values(every_other, 4), pack_values(every_other.copy(), 4)
        )
        values = pack_values_axis(wide, 3)[:, ::2]
        assert np.array_equal(
            unpack_values_axis(values, 3), unpack_values_axis(values.copy(), 3)
        )

    def test_plain_lists_accepted(self) -> None:
        assert pack_values([1, 0, 0, 1, 1, 0], 3).tolist() == [1, 3]
        assert unpack_values([1, 3], 3).tolist() == [1, 0, 0, 1, 1, 0]


class TestGf2Convolve:
    def test_identity(self) -> None:
        seq = np.array([1, 0, 1, 1], np.uint8)
        assert gf2_convolve_axis(seq, np.array([1]), 4).tolist() == [1, 0, 1, 1]

    def test_shift(self) -> None:
        seq = np.array([1, 0, 1, 1], np.uint8)
        # taps = D shifts the sequence by one.
        assert gf2_convolve_axis(seq, np.array([0, 1]), 4).tolist() == [0, 1, 0, 1]

    def test_xor_of_shifts(self) -> None:
        seq = np.array([1, 1, 0, 0], np.uint8)
        # taps = 1 + D: out[n] = seq[n] ^ seq[n-1].
        assert gf2_convolve_axis(seq, np.array([1, 1]), 4).tolist() == [1, 0, 1, 0]

    def test_truncation_pads(self) -> None:
        seq = np.array([1], np.uint8)
        assert gf2_convolve_axis(seq, np.array([1, 1, 1]), 5).tolist() == [1, 1, 1, 0, 0]

    def test_matches_integer_convolution_mod_2(self) -> None:
        """One page or a batch: the XOR of shifted copies is ``np.convolve``
        mod 2, truncated to ``length`` and zero padded."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            seq = rng.integers(0, 2, (3, int(rng.integers(1, 20))), dtype=np.uint8)
            taps = rng.integers(0, 2, int(rng.integers(1, 8)))
            length = int(rng.integers(1, 30))
            got = gf2_convolve_axis(seq, taps, length)
            for lane, row in enumerate(seq):
                product = np.convolve(row.astype(np.int64), taps)[:length] & 1
                expected = np.pad(product, (0, length - len(product)))
                assert gf2_convolve_axis(row, taps, length).tolist() == expected.tolist()
                assert got[lane].tolist() == expected.tolist()


class TestRandomBits:
    def test_deterministic_with_seed(self) -> None:
        with RandomBits(np.random.default_rng(3)) as draw:
            a = draw(32)
        with RandomBits(np.random.default_rng(3)) as draw:
            b = draw(32)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    @pytest.mark.parametrize("count", [*range(18), 5449])
    @pytest.mark.parametrize(
        "make", [np.random.default_rng, lambda s: np.random.Generator(np.random.MT19937(s))],
        ids=["pcg64", "mt19937"],
    )
    def test_draws_what_integers_draws(self, make, count) -> None:
        """Five runs of one draw in a row, each starting where the last left
        the generator (5 449 is MFC-1/2-1BPC's dataword at 4 KB): the same bits
        and the same generator state as ``integers(0, 2, n, dtype=uint8)``,
        whose 32-bit draws may begin on the kept half of a PCG64 word.  An
        MT19937 has no such half, nor the state keys that name it: it takes
        the ``integers`` path."""
        ours, reference = make(2016), make(2016)
        for _ in range(5):
            expected = reference.integers(0, 2, count, dtype=np.uint8)
            with RandomBits(ours) as draw:
                got = draw(count)
            assert got.dtype == np.uint8 and got.shape == (count,)
            assert np.array_equal(got, expected)
            assert _plain(ours.bit_generator.state) == _plain(
                reference.bit_generator.state
            )
        assert ours.random() == reference.random()

    @pytest.mark.parametrize("start", [0, 1], ids=["whole-word", "kept-half"])
    def test_a_run_of_draws_is_a_run_of_integers_calls(self, start) -> None:
        """One ``RandomBits`` over mixed counts, whose 32-bit draws end on
        either half of a PCG64 word, with float draws in between, as a
        defect run makes them: the bits of ``integers`` call by call, and
        once closed the generator state those calls leave."""
        ours, reference = np.random.default_rng(2016), np.random.default_rng(2016)
        for rng in (ours, reference):
            rng.integers(0, 2, 4 * start, dtype=np.uint8)
        with RandomBits(ours) as draw:
            for count in (1, 4, 5, 8, 9, 3, 5449, 12, 0, 7, 32768, 2, 16):
                expected = reference.integers(0, 2, count, dtype=np.uint8)
                assert np.array_equal(draw(count), expected)
                floats = count % 5
                assert np.array_equal(ours.random(floats), reference.random(floats))
        assert _plain(ours.bit_generator.state) == _plain(reference.bit_generator.state)
        assert np.array_equal(
            ours.integers(0, 2, 5, dtype=np.uint8),
            reference.integers(0, 2, 5, dtype=np.uint8),
        )


def _plain(state):
    """A bit generator's state with its arrays as lists, for ``==``."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state
