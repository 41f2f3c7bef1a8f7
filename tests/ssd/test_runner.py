"""Tests for the SSD CLI runner."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ssd.runner import main

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestSsdCli:
    def test_default_comparison_runs(self, capsys) -> None:
        exit_code = main(["--schemes", "uncoded", "wom", "--max-writes", "5000",
                          "--erase-limit", "5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "uncoded" in out and "wom" in out
        assert "host writes" in out

    def test_wear_leveling_sweep_labels_rows(self, capsys) -> None:
        main(["--schemes", "wom", "--wear-leveling", "none", "dynamic",
              "--workload", "hotcold", "--max-writes", "5000",
              "--erase-limit", "5"])
        out = capsys.readouterr().out
        assert "wom/none" in out and "wom/dynamic" in out

    def test_trace_replay(self, tmp_path, capsys) -> None:
        path = tmp_path / "w.csv"
        path.write_text("".join(f"0.0,Write,{lpn * 4096},4096\n"
                                for lpn in (0, 1, 2, 0, 0, 1)))
        main(["--schemes", "uncoded", "--trace", str(path),
              "--max-writes", "2000", "--erase-limit", "4"])
        assert "uncoded" in capsys.readouterr().out

    def test_newline_lpn_trace_exits_2(self, tmp_path) -> None:
        path = tmp_path / "w.trace"
        path.write_text("0\n1\n2\n")
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.ssd", "--schemes", "uncoded",
             "--trace", str(path), "--max-writes", "50"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "expected 4 or 7+ comma-separated fields" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zipf_and_sequential_workloads(self, capsys) -> None:
        for workload in ("zipf", "sequential"):
            main(["--schemes", "uncoded", "--workload", workload,
                  "--max-writes", "2000", "--erase-limit", "4"])
        assert "uncoded" in capsys.readouterr().out

    def test_bad_workload_rejected(self) -> None:
        with pytest.raises(SystemExit):
            main(["--workload", "nonsense"])

    @pytest.mark.parametrize("tenants", ["0", "-3"])
    def test_fewer_than_one_tenant_exits_2(self, tenants: str, capsys) -> None:
        exit_code = main(["--tenants", tenants, "--schemes", "wom",
                          "--max-writes", "50"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "--tenants must be >= 1" in captured.err
        assert "host writes" not in captured.out
