"""Tests for the experiments CLI."""

from __future__ import annotations

import pytest

from repro.experiments.runner import main

FAST_ARGS = ["--page-bytes", "96", "--cycles", "1", "--constraint-length", "3"]


def _exit_code(argv: list[str]) -> int:
    """``main``'s exit code, whether argparse or the runner reports it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExperimentsCli:
    def test_table1(self, capsys) -> None:
        assert main(["table1", *FAST_ARGS]) == 0
        out = capsys.readouterr().out
        assert "MFC-1/2-1BPC" in out and "aggregate" in out

    @pytest.mark.parametrize("figure", ["fig1", "fig13", "fig15", "fig16"])
    def test_individual_figures(self, figure: str, capsys) -> None:
        assert main([figure, *FAST_ARGS]) == 0
        out = capsys.readouterr().out
        assert f"=== {figure} " in out

    def test_header_reports_config(self, capsys) -> None:
        main(["fig15", *FAST_ARGS])
        out = capsys.readouterr().out
        assert "page 96 B" in out and "K=3" in out

    def test_unknown_experiment_rejected(self) -> None:
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--cycles", "0", "cycles must be >= 1"),
            ("--lanes", "0", "lanes must be >= 1"),
            ("--page-bytes", "0", "page_bytes must be >= 1"),
            ("--page-bytes", "1", "page too small"),
            ("--constraint-length", "99", "K=99"),
            ("--viterbi-backend", "fortran", "fortran"),
            ("--jobs", "2", "unrecognized arguments"),
        ],
    )
    def test_bad_knob_is_one_line_and_exit_2(
        self, flag: str, value: str, message: str, capsys
    ) -> None:
        assert _exit_code(["table1", *FAST_ARGS, flag, value]) == 2
        assert message in capsys.readouterr().err.splitlines()[-1]

    def test_bad_environment_knob_is_reported_the_same_way(
        self, monkeypatch, capsys
    ) -> None:
        monkeypatch.setenv("REPRO_LANES", "0")
        assert _exit_code(["table1", *FAST_ARGS]) == 2
        assert "lanes must be >= 1" in capsys.readouterr().err.splitlines()[-1]
