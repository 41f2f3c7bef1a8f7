"""Op protocol and deterministic payload derivation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.workload import Op, OpKind, UniformWorkload, payload_for


class TestOp:
    def test_frozen(self) -> None:
        op = Op(OpKind.WRITE, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.lpn = 4  # type: ignore[misc]

    def test_defaults(self) -> None:
        op = Op(OpKind.READ, 7)
        assert op.tenant == 0 and op.data_seed is None


class TestPayloadFor:
    def test_deterministic_for_same_seed(self) -> None:
        op = Op(OpKind.WRITE, 5, data_seed=(1, 5, 0))
        assert np.array_equal(payload_for(op, 64), payload_for(op, 64))

    def test_binary_and_sized(self) -> None:
        op = Op(OpKind.WRITE, 5, data_seed=(1, 5, 0))
        data = payload_for(op, 257)
        assert data.shape == (257,) and data.dtype == np.uint8
        assert set(np.unique(data)) <= {0, 1}

    def test_different_seeds_differ(self) -> None:
        a = payload_for(Op(OpKind.WRITE, 5, data_seed=(1, 5, 0)), 128)
        b = payload_for(Op(OpKind.WRITE, 5, data_seed=(1, 5, 1)), 128)
        assert not np.array_equal(a, b)

    def test_read_and_trim_have_no_payload(self) -> None:
        for kind in (OpKind.READ, OpKind.TRIM):
            with pytest.raises(ValueError, match="no payload"):
                payload_for(Op(kind, 0), 64)

    def test_bytes_are_the_generators_uint8_draw(self) -> None:
        """The PCG64 stream read directly gives ``integers``' exact bits."""
        sizes = (0, 1, 7, 8, 9, 683, 2730, 4096, 32768)
        for index in range(240):
            seed = (index % 7, index * 131, index // 7)
            op = Op(OpKind.WRITE, 0, data_seed=seed)
            for bits in sizes:
                expected = np.random.default_rng(seed).integers(
                    0, 2, bits, dtype=np.uint8
                )
                data = payload_for(op, bits)
                assert data.dtype == expected.dtype
                assert data.shape == expected.shape
                assert np.array_equal(data, expected), (seed, bits)

    def test_negative_size_rejected(self) -> None:
        op = Op(OpKind.WRITE, 5, data_seed=(1, 5, 0))
        with pytest.raises(ValueError):
            payload_for(op, -1)


class TestWriteVersioning:
    """Repeated writes to one page must carry *different* payloads."""

    def test_rewrites_change_data_seed(self) -> None:
        wl = UniformWorkload(4, seed=0)
        first, second = wl.write_op(2), wl.write_op(2)
        assert first.data_seed != second.data_seed
        assert not np.array_equal(
            payload_for(first, 64), payload_for(second, 64)
        )

    def test_versions_are_per_lpn(self) -> None:
        wl = UniformWorkload(4, seed=0)
        wl.write_op(1)  # bumps LPN 1 only
        a = wl.write_op(2)
        b = UniformWorkload(4, seed=0).write_op(2)
        assert a.data_seed == b.data_seed  # LPN 2 is still on version 0

    def test_two_harnesses_derive_identical_bytes(self) -> None:
        """The satellite (b) property: same (seed, lpn, version) anywhere
        yields the same payload — simulator and loadgen included."""
        ours = UniformWorkload(32, seed=11)
        theirs = UniformWorkload(32, seed=11)
        for _ in range(50):
            a, b = next(ours), next(theirs)
            assert a == b
            assert np.array_equal(payload_for(a, 64), payload_for(b, 64))
