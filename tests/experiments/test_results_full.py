"""The paper artefact as a standing test: ``results_full.txt`` regenerates.

``results_full.txt`` is the recorded output of ``python -m
repro.experiments all --page-bytes 4096 --cycles 5`` (Table I, Figs. 1 and
11-16, the extensions).  Everything but the wall-clock lines — the
``=== name (...) ===`` headers and the ``[name]`` footers — must come out
byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.coding.kernels import resolve_backend
from repro.experiments.runner import main

RECORDED = Path(__file__).resolve().parents[2] / "results_full.txt"


def _body(text: str) -> list[str]:
    return [
        line
        for line in text.splitlines()
        if line.strip() and not line.startswith(("=== ", "["))
    ]


def test_all_experiments_match_results_full(capsys) -> None:
    if resolve_backend().name != "native":
        pytest.skip(
            "20 s on the numpy backend (0.8 s on native), whose bit-identity "
            "to native `make kernel-equivalence` pins"
        )
    assert main(["all", "--page-bytes", "4096", "--cycles", "5", "--no-cache"]) == 0
    assert _body(capsys.readouterr().out) == _body(RECORDED.read_text())
