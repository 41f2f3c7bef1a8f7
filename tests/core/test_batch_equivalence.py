"""Scalar/batch equivalence of the scheme write path (tentpole invariant).

``write_batch`` over ``B`` lanes must behave exactly like ``B`` independent
scalar ``write`` calls: same new states, and per-lane ``UnwritableError``
surfacing as a False mask entry instead of an exception.  Runs across every
MFC rate, WOM and the two baselines, over random seeds, including batches
where some lanes saturate mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_scheme
from repro.errors import UnwritableError

PAGE = 480

#: Every natively batched scheme: all five MFC rates (1 and 2 BPC), WOM,
#: and the identity and replication codes of the two baselines.
BATCHED_SCHEMES = [
    ("uncoded", {}),
    ("redundancy-1/2", {}),
    ("redundancy-1/3", {}),
    ("wom", {}),
    ("mfc-1/2-1bpc", {"constraint_length": 3}),
    ("mfc-1/2-2bpc", {"constraint_length": 3}),
    ("mfc-2/3", {"constraint_length": 3}),
    ("mfc-3/4", {"constraint_length": 3}),
    ("mfc-4/5", {"constraint_length": 3}),
]


def scalar_reference(scheme, states, datawords):
    """What write_batch must reproduce: one scalar write per lane."""
    new_states = states.copy()
    writable = np.ones(len(states), dtype=bool)
    for lane in range(len(states)):
        try:
            new_states[lane] = scheme.write(states[lane], datawords[lane])
        except UnwritableError:
            writable[lane] = False
    return new_states, writable


@pytest.mark.parametrize("name,kwargs", BATCHED_SCHEMES)
class TestWriteBatchEqualsScalar:
    def _scheme(self, name, kwargs):
        return make_scheme(name, PAGE, **kwargs)

    @pytest.mark.parametrize("seed", range(4))
    def test_fresh_batch_matches_scalar(self, name, kwargs, seed) -> None:
        scheme = self._scheme(name, kwargs)
        rng = np.random.default_rng(seed)
        lanes = 6
        states = scheme.fresh_states(lanes)
        datawords = rng.integers(
            0, 2, (lanes, scheme.dataword_bits), dtype=np.uint8
        )
        expected_states, expected_mask = scalar_reference(
            scheme, states, datawords
        )
        got_states, got_mask = scheme.write_batch(states, datawords)
        assert np.array_equal(got_mask, expected_mask)
        assert np.array_equal(got_states, expected_states)

    @pytest.mark.parametrize("seed", range(4))
    def test_aged_batch_with_saturating_lanes(self, name, kwargs, seed) -> None:
        """Lanes age at different speeds; some go unwritable mid-batch."""
        scheme = self._scheme(name, kwargs)
        rng = np.random.default_rng(100 + seed)
        lanes = 6
        states = scheme.fresh_states(lanes)
        any_unwritable = False
        for _ in range(40):
            datawords = rng.integers(
                0, 2, (lanes, scheme.dataword_bits), dtype=np.uint8
            )
            expected_states, expected_mask = scalar_reference(
                scheme, states, datawords
            )
            got_states, got_mask = scheme.write_batch(states, datawords)
            assert np.array_equal(got_mask, expected_mask)
            assert np.array_equal(got_states, expected_states)
            any_unwritable |= not got_mask.all()
            states = got_states
            if not got_mask.any():
                break
        assert any_unwritable, "test never exercised an unwritable lane"

    def test_unwritable_lane_state_is_unchanged(self, name, kwargs) -> None:
        scheme = self._scheme(name, kwargs)
        rng = np.random.default_rng(7)
        lanes = 4
        states = scheme.fresh_states(lanes)
        # Exhaust every lane.
        while True:
            datawords = rng.integers(
                0, 2, (lanes, scheme.dataword_bits), dtype=np.uint8
            )
            new_states, mask = scheme.write_batch(states, datawords)
            if not mask.any():
                break
            states = new_states
        assert np.array_equal(new_states, states)

    def test_read_batch_round_trip(self, name, kwargs) -> None:
        scheme = self._scheme(name, kwargs)
        rng = np.random.default_rng(11)
        lanes = 5
        datawords = rng.integers(
            0, 2, (lanes, scheme.dataword_bits), dtype=np.uint8
        )
        states, mask = scheme.write_batch(scheme.fresh_states(lanes), datawords)
        assert mask.all()
        assert np.array_equal(scheme.read_batch(states), datawords)


class TestDefaultBatchFallback:
    """Schemes without native batching get the loop-based default."""

    @pytest.mark.parametrize("name", ["waterfall", "rank-modulation"])
    def test_fallback_matches_scalar(self, name) -> None:
        scheme = make_scheme(name, PAGE)
        rng = np.random.default_rng(2)
        lanes = 3
        states = scheme.fresh_states(lanes)
        datawords = rng.integers(
            0, 2, (lanes, scheme.dataword_bits), dtype=np.uint8
        )
        new_states, mask = scheme.write_batch(states, datawords)
        assert mask.all()
        assert np.array_equal(scheme.read_batch(new_states), datawords)


@given(seed=st.integers(0, 10_000), lanes=st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_property_mfc_batch_equals_scalar(seed: int, lanes: int) -> None:
    """Property over random seeds and batch sizes for the paper's headline code."""
    scheme = make_scheme("mfc-1/2-1bpc", PAGE, constraint_length=3)
    rng = np.random.default_rng(seed)
    states = scheme.fresh_states(lanes)
    for _ in range(3):
        datawords = rng.integers(
            0, 2, (lanes, scheme.dataword_bits), dtype=np.uint8
        )
        expected_states, expected_mask = scalar_reference(
            scheme, states, datawords
        )
        states, mask = scheme.write_batch(states, datawords)
        assert np.array_equal(mask, expected_mask)
        assert np.array_equal(states, expected_states)
