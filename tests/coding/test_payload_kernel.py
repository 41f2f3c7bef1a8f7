"""Bit-identity of the payload kernel against its numpy twin.

A write's payload bits (:func:`repro.workload.payload_for`) come from the
kernel backend's ``payload``: the native one seeds and steps PCG64 in C, the
numpy one reads ``np.random.PCG64(seed).random_raw``.  The numpy backend's
function is the reference: every other available backend must return the
same bits for every seed and bit count, and ``payload_for`` the same as
both under whichever backend ``REPRO_VITERBI_BACKEND`` forces.  ``make
kernel-sanitize`` runs this file under ASan + UBSan: the native entry
writes through a raw pointer.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.coding import kernels
from repro.workload import Op, OpKind, payload_for
from repro.workload.ops import _seed_words

BACKENDS = kernels.available_backends()

#: Entries at the edges of a uint32 word: one word, two, three.
EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 - 1]

entries = st.one_of(st.integers(0, 2**70 - 1), st.sampled_from(EDGES))
bit_counts = st.one_of(
    st.integers(0, 40_000), st.sampled_from([0, 1, 7, 8, 9, 4095, 4096, 32_768])
)


def _reference(seed, bits: int) -> np.ndarray:
    """What ``payload_for`` drew before the kernel: numpy's own stream."""
    words = np.random.PCG64(seed).random_raw((bits + 7) // 8)
    return words.astype("<u8").view(np.uint8)[:bits] >> 7


@given(seed=st.lists(entries, max_size=6).map(tuple), bits=bit_counts)
@example(seed=(), bits=0)
@example(seed=(0,), bits=1)
@example(seed=(2**32, 0, 2**64), bits=40_000)
@example(seed=(31, 5, 2), bits=4093)
@settings(max_examples=300, deadline=None)
def test_every_backend_draws_numpys_bits(seed, bits) -> None:
    expected = _reference(seed, bits)
    words = _seed_words(seed)
    assert words is not None and all(0 <= word < 2**32 for word in words)
    for name in BACKENDS:
        got = kernels.resolve_backend(name).payload(words, bits)
        assert got.dtype == np.uint8 and got.shape == (bits,), name
        assert np.array_equal(got, expected), name
    got = payload_for(Op(OpKind.WRITE, 0, data_seed=seed), bits)
    assert got.dtype == np.uint8 and np.array_equal(got, expected)


@pytest.mark.parametrize(
    "entry, words",
    [(0, [0]), (1, [1]), (2**32 - 1, [2**32 - 1]), (2**32, [0, 1]),
     (2**64 + 5, [5, 0, 1])],
)
def test_an_entry_is_its_little_endian_words(entry, words) -> None:
    assert _seed_words((7, entry)) == [7, *words]
    ours = np.random.SeedSequence(np.array([7, *words], dtype=np.uint32))
    theirs = np.random.SeedSequence((7, entry))
    assert np.array_equal(ours.generate_state(4), theirs.generate_state(4))


@pytest.mark.parametrize(
    "seed", [(1, -1, 0), (-(2**40),), (1.5,), (1, None)],
    ids=["negative", "large negative", "float", "None"],
)
def test_entries_numpy_refuses_raise_what_numpy_raises(seed) -> None:
    with pytest.raises(Exception) as expected:
        np.random.PCG64(seed)
    with pytest.raises(type(expected.value)) as got:
        payload_for(Op(OpKind.WRITE, 0, data_seed=seed), 64)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "seed", [(True, 3), (np.int64(5), 2), (np.uint32(9),), [4, 5], ("7",), 12],
    ids=["bool", "numpy int", "numpy uint32", "list", "str", "int"],
)
def test_other_seeds_draw_what_numpy_draws(seed) -> None:
    """They go to the numpy twin, which reads them as ``SeedSequence``."""
    got = payload_for(Op(OpKind.WRITE, 0, data_seed=seed), 130)
    assert np.array_equal(got, _reference(seed, 130))


def test_importing_the_workloads_builds_no_kernel() -> None:
    """The backend is resolved by the first payload, not at import."""
    probe = (
        "import sys, repro.workload\n"
        "print(any(m.startswith('repro.coding') for m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
    ).stdout
    assert out.strip() == "False"


@pytest.mark.skipif("native" not in BACKENDS, reason="no C compiler here")
def test_native_needs_no_twin_on_valid_input(monkeypatch) -> None:
    """The twin runs only where the kernel refused (no 128-bit integer)."""
    expected = [_reference((3, lpn, 2**40), 4096) for lpn in range(4)]

    def twin(*_args):
        raise AssertionError("the native kernel fell back to its twin")

    monkeypatch.setattr(kernels, "_payload_numpy", twin)
    native = kernels.resolve_backend("native")
    for lpn, bits in enumerate(expected):
        words = _seed_words((3, lpn, 2**40))
        assert np.array_equal(native.payload(words, 4096), bits)
