"""Tests for pages of bits and program-without-erase semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PageProgramError
from repro.flash import Page, PageState


class TestPageBasics:
    def test_starts_erased_all_zero(self) -> None:
        page = Page(32)
        assert page.state is PageState.ERASED
        assert page.read().sum() == 0
        assert page.program_count == 0

    def test_program_sets_bits(self) -> None:
        page = Page(8)
        target = np.array([1, 0, 1, 0, 0, 0, 0, 1], dtype=np.uint8)
        page.apply_program(page.validate_program(target))
        assert np.array_equal(page.read(), target)
        assert page.state is PageState.PROGRAMMED
        assert page.program_count == 1

    def test_program_without_erase_accumulates_bits(self) -> None:
        page = Page(4)
        page.apply_program(page.validate_program(np.array([1, 0, 0, 0], np.uint8)))
        page.apply_program(page.validate_program(np.array([1, 1, 0, 0], np.uint8)))
        assert np.array_equal(page.read(), np.array([1, 1, 0, 0], np.uint8))
        assert page.program_count == 2

    def test_bits_view_is_read_only(self) -> None:
        page = Page(4)
        with pytest.raises(ValueError):
            page.bits[0] = 1

    def test_read_returns_copy(self) -> None:
        page = Page(4)
        copy = page.read()
        copy[0] = 1
        assert page.read()[0] == 0


class TestProgramValidation:
    def test_clearing_a_bit_is_rejected(self) -> None:
        page = Page(4)
        page.apply_program(page.validate_program(np.array([1, 1, 0, 0], np.uint8)))
        with pytest.raises(PageProgramError, match="clear"):
            page.validate_program(np.array([1, 0, 0, 0], np.uint8))

    def test_wrong_size_rejected(self) -> None:
        page = Page(4)
        with pytest.raises(PageProgramError, match="shape"):
            page.validate_program(np.zeros(5, np.uint8))

    def test_non_binary_rejected(self) -> None:
        page = Page(4)
        with pytest.raises(PageProgramError, match="0/1"):
            page.validate_program(np.array([0, 2, 0, 0], np.uint8))

    @pytest.mark.parametrize(
        "value, dtype",
        [(256, np.int64), (257, np.int64), (-1, np.int64), (2, np.uint16),
         (256.0, np.float64), (0.9, np.float64), (1.5, np.float32)],
    )
    def test_non_binary_rejected_before_narrowing(self, value, dtype) -> None:
        """As uint8, 256 would program a 0, 257 a 1 and 0.9 a 0."""
        page = Page(4)
        buffer = np.array([0, 1, value, 0], dtype=dtype)
        with pytest.raises(PageProgramError, match="only 0/1 values"):
            page.validate_program(buffer)

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64, np.float64])
    def test_binary_buffer_of_any_dtype_programs_as_uint8(self, dtype) -> None:
        page = Page(4)
        target = page.validate_program(np.array([0, 1, 1, 0], dtype=dtype))
        assert target.dtype == np.uint8
        assert target.tolist() == [0, 1, 1, 0]
        assert page.validate_program([0, 1, 1, 0]).tolist() == [0, 1, 1, 0]

    def test_shape_is_checked_before_values(self) -> None:
        with pytest.raises(PageProgramError, match="shape"):
            Page(4).validate_program(np.array([0, 256, 7], dtype=np.int64))

    def test_validation_does_not_commit(self) -> None:
        page = Page(4)
        page.validate_program(np.ones(4, np.uint8))
        assert page.read().sum() == 0
        assert page.program_count == 0


class TestErase:
    def test_erase_resets_everything(self) -> None:
        page = Page(4)
        page.apply_program(page.validate_program(np.ones(4, np.uint8)))
        page.erase()
        assert page.state is PageState.ERASED
        assert page.read().sum() == 0
        assert page.program_count == 0

    def test_bits_settable_again_after_erase(self) -> None:
        page = Page(4)
        page.apply_program(page.validate_program(np.ones(4, np.uint8)))
        page.erase()
        target = np.array([0, 1, 0, 1], np.uint8)
        page.apply_program(page.validate_program(target))
        assert np.array_equal(page.read(), target)
