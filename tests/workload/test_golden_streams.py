"""Golden-stream regression tests for the ported distributions.

``golden_streams.json`` was recorded from the pre-unification iterators
(the ``repro.ssd`` workload classes before the move to typed op streams).
These tests pin the refactored generators to those exact LPN sequences:
any accidental change to RNG call order or sampling math shows up as a
diff against the fixture, not as silently different lifetime numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workload import make_workload

FIXTURE = Path(__file__).parent / "golden_streams.json"


def _parse_key(key: str) -> tuple[str, dict, int, int]:
    """``"name[-p1[-p2]]/pages/seed"`` -> (name, params, pages, seed)."""
    spec, pages, seed = key.rsplit("/", 2)
    name, _, rest = spec.partition("-")
    params: dict = {}
    if rest:
        values = [float(v) for v in rest.split("-")]
        if name == "hotcold":
            params = {"hot_fraction": values[0], "hot_probability": values[1]}
        elif name == "zipf":
            params = {"skew": values[0]}
        else:
            raise AssertionError(f"unparsed golden key {key!r}")
    return name, params, int(pages), int(seed)


def _golden() -> dict[str, list[int]]:
    return json.loads(FIXTURE.read_text())


class TestGoldenStreams:
    @pytest.mark.parametrize("key", sorted(_golden()))
    def test_lpn_sequence_is_bit_identical(self, key: str) -> None:
        name, params, pages, seed = _parse_key(key)
        workload = make_workload(name, pages, seed=seed, **params)
        got = [next(workload).lpn for _ in range(len(_golden()[key]))]
        assert got == _golden()[key], (
            f"{key}: LPN stream diverged from the pre-refactor fixture"
        )

    def test_fixture_covers_all_four_distributions(self) -> None:
        names = {_parse_key(key)[0] for key in _golden()}
        assert names == {"uniform", "hotcold", "zipf", "sequential"}

    def test_fixture_includes_non_default_parameters(self) -> None:
        keyed = [key for key in _golden() if _parse_key(key)[1]]
        assert len(keyed) >= 2  # hotcold + zipf with explicit params

    def test_read_mix_does_not_disturb_lpn_stream(self) -> None:
        """The op-kind mix draws from a salted stream, never the LPN rng."""
        key = "uniform/64/0"
        name, params, pages, seed = _parse_key(key)
        mixed = make_workload(
            name, pages, seed=seed, read_fraction=0.3, trim_fraction=0.2,
            **params,
        )
        got = [next(mixed).lpn for _ in range(len(_golden()[key]))]
        assert got == _golden()[key]
