"""Small bit-manipulation helpers shared by the coding layers."""

from __future__ import annotations

import numpy as np

__all__ = [
    "bits_from_bytes",
    "bytes_from_bits",
    "pack_values",
    "unpack_values",
    "pack_values_axis",
    "unpack_values_axis",
    "gf2_convolve_axis",
    "gf2_divide_causal",
    "RandomBits",
]


def bits_from_bytes(data: bytes) -> np.ndarray:
    """Expand bytes into a bit array, least-significant bit of each byte first."""
    raw = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")


def bytes_from_bits(bits: np.ndarray) -> bytes:
    """Pack a bit array (padded with zeros to a byte boundary) into bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


def pack_values(bits: np.ndarray, width: int) -> np.ndarray:
    """Pack groups of ``width`` bits (LSB first) into integer values.

    ``bits`` must have a length divisible by ``width``; the result has
    ``len(bits) // width`` int64 entries.
    """
    return pack_values_axis(np.asarray(bits).reshape(-1), width)


def unpack_values(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_values`: expand values into bit groups (LSB first)."""
    return unpack_values_axis(np.asarray(values).reshape(-1), width)


def pack_values_axis(bits: np.ndarray, width: int) -> np.ndarray:
    """Batch-aware :func:`pack_values`: packs along the last axis.

    ``bits`` has shape ``(..., n * width)``; the result is ``(..., n)`` and
    int64 whatever ``bits`` is, so a caller's ``value << k`` cannot wrap.
    """
    bits = np.asarray(bits)
    columns = bits.reshape(*bits.shape[:-1], bits.shape[-1] // width, width)
    values = columns[..., 0].astype(np.int64)
    for shift in range(1, width):
        values |= columns[..., shift].astype(np.int64) << shift
    return values


def unpack_values_axis(values: np.ndarray, width: int) -> np.ndarray:
    """Batch-aware :func:`unpack_values`: expands along the last axis.

    ``values`` has shape ``(..., n)``; the result is uint8 ``(..., n * width)``.
    """
    values = np.asarray(values)
    bits = np.empty((*values.shape, width), dtype=np.uint8)
    for shift in range(width):
        bits[..., shift] = (values >> shift) & 1
    return bits.reshape(*values.shape[:-1], values.shape[-1] * width)


def gf2_convolve_axis(sequences: np.ndarray, taps: np.ndarray, length: int) -> np.ndarray:
    """GF(2) polynomial product ``sequences * taps`` truncated to ``length``
    terms, along the last axis.

    Coefficient arrays have index = power of D.  ``sequences`` is
    ``(..., n)``; the result is uint8 ``(..., length)``, zero padded.  GF(2)
    convolution is a XOR of tap-shifted copies, so the few nonzero taps turn
    into slice XORs that vectorize over any leading batch axes.
    """
    seq = np.asarray(sequences, dtype=np.uint8)
    out = np.zeros(seq.shape[:-1] + (length,), dtype=np.uint8)
    n = seq.shape[-1]
    for power in np.flatnonzero(np.asarray(taps)):
        power = int(power)
        if power >= length:
            continue
        span = min(length - power, n)
        out[..., power : power + span] ^= seq[..., :span]
    return out


def gf2_divide_causal(numerators: np.ndarray, feedback_taps: np.ndarray) -> np.ndarray:
    """Causal GF(2) division by ``g1(D)`` along the last axis.

    ``feedback_taps`` holds the nonzero powers (>= 1) of ``g1``; the constant
    term must be 1.  Squaring is linear over GF(2), ``g1(D)**2 == g1(D**2)``,
    so ``g1(D) * g1(D**2) * ... * g1(D**(2**k)) == g1(D)**(2**(k+1) - 1)``
    and ``1/g1 == g1 * g1(D**2) * g1(D**4) * ...`` modulo ``D**steps`` once
    ``g1(D**(2**(k+1)))`` is 1 there.  Each factor is a few slice XORs
    vectorized over the leading batch axes.
    """
    out = np.array(numerators, dtype=np.uint8, order="C")
    steps = out.shape[-1]
    shifts = [int(tap) for tap in feedback_taps if tap < steps]
    while shifts:
        prev = out.copy()
        for shift in shifts:
            out[..., shift:] ^= prev[..., : steps - shift]
        shifts = [2 * shift for shift in shifts if 2 * shift < steps]
    return out


class RandomBits:
    """A run of uniform random bit draws from one generator: call it with a
    count for each, then :meth:`close` it (or leave its ``with`` block).

    Each draw gives the bits ``rng.integers(0, 2, count, dtype=np.uint8)``
    gives, and after :meth:`close` ``rng`` is in the state as many such calls
    leave it in.  That call keeps the top bit of one byte per output, four
    bytes to a 32-bit draw, low byte first, and drops a draw's unused bytes.
    A PCG64 makes its 32-bit draws two to a 64-bit word, low half first, and
    keeps the high half for the next one (``has_uint32``/``uinteger`` in its
    state).  So for PCG64 the bits are the top bits of the bytes of that
    kept half, if any, then of ``random_raw``'s words, read low byte first.
    ``random_raw`` and float draws (``rng.random``) neither read nor set the
    kept half, so it is read from the state once, carried from draw to draw
    and written back by :meth:`close`: the last word's high half, kept when
    its low half was the last draw.  Until then only those may draw from
    ``rng`` besides this object.  Any other bit generator is asked as above
    on every draw.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        bitgen = rng.bit_generator
        self._pcg64 = bitgen if isinstance(bitgen, np.random.PCG64) else None
        if self._pcg64 is not None:
            state = bitgen.state
            self._kept = bool(state["has_uint32"])
            self._high = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)

    def __call__(self, count: int) -> np.ndarray:
        """``count`` uniform random bits as uint8."""
        if self._pcg64 is None or count < 1:
            return self._rng.integers(0, 2, count, dtype=np.uint8)
        halves = (count + 3) // 4 - self._kept  # 32-bit draws from new words
        words = self._pcg64.random_raw((halves + 1) // 2).astype("<u8", copy=False)
        stream = words.view(np.uint8)
        if self._kept:
            stream = np.concatenate((self._high, stream))
        if halves:
            self._high = stream[-4:].copy()
        self._kept = bool(halves % 2)
        return stream[:count] >> 7

    def close(self) -> None:
        """Write the carried half back into the generator's state."""
        if self._pcg64 is not None:
            state = self._pcg64.state
            state["has_uint32"] = int(self._kept)
            state["uinteger"] = int.from_bytes(self._high.tobytes(), "little")
            self._pcg64.state = state

    def __enter__(self) -> RandomBits:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

