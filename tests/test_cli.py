"""Every documented ``python -m repro.<runner>`` command still parses.

The commands come from README.md's code blocks, the Makefile and the CI
workflow.  Each one is parsed by its runner's own ``build_parser()``, so a
renamed or removed flag fails here instead of in a reader's terminal.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.runner import build_parser as experiments_parser
from repro.server.runner import build_parser as server_parser
from repro.ssd.runner import build_parser as ssd_parser

ROOT = Path(__file__).resolve().parents[1]

PARSERS = {
    "repro.experiments": experiments_parser,
    "repro.ssd": ssd_parser,
    "repro.server": server_parser,
}

#: Where a command's own arguments end in a shell line.
SHELL_OPERATORS = {"|", "&", "&&", ";", "2>&1"}


def _code_lines(path: Path) -> list[str]:
    """The lines a shell would run: README's fenced blocks, all else."""
    lines = path.read_text().splitlines()
    if path.suffix != ".md":
        return lines
    kept, fenced = [], False
    for line in lines:
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            kept.append(line)
    return kept


def _commands(path: Path) -> list[tuple[str, list[str]]]:
    """(runner, argv) for every ``python -m repro.<runner>`` in ``path``."""
    joined, pending = [], ""
    for line in _code_lines(path):
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        joined.append(pending + line)
        pending = ""
    found = []
    for line in joined:
        if "-m repro." not in line:
            continue
        words = shlex.split(line, comments=True)
        while words and re.fullmatch(r"\w+=\S*", words[0]):
            words.pop(0)  # VAR=value prefixes
        if words[:2] != ["python", "-m"] or words[2] not in PARSERS:
            continue
        argv = []
        for word in words[3:]:
            if word in SHELL_OPERATORS or word.startswith(">"):
                break
            argv.append(word)
        found.append((words[2], argv))
    return found


DOCUMENTED = [
    pytest.param(runner, argv, id=f"{path.name}: {runner} {' '.join(argv)}")
    for path in (ROOT / "README.md", ROOT / "Makefile",
                 ROOT / ".github" / "workflows" / "ci.yml")
    for runner, argv in _commands(path)
]


def test_every_runner_is_documented() -> None:
    assert {param.values[0] for param in DOCUMENTED} == set(PARSERS)


@pytest.mark.parametrize("runner, argv", DOCUMENTED)
def test_documented_command_parses(runner: str, argv: list[str]) -> None:
    try:
        PARSERS[runner]().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"python -m {runner} {shlex.join(argv)}: exit {exc.code}")
