"""CLI tests for ``python -m repro.cluster`` (serve and bench).

The self-contained bench launches a real subprocess fleet, so these are
the heaviest tests in the cluster suite — they use the tiniest device
that still round-trips a codeword.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.runner import _shard_extra_args, _shard_flags, main

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

FAST_DEVICE = [
    "--page-bytes", "32", "--blocks", "8", "--pages-per-block", "8",
    "--erase-limit", "200", "--constraint-length", "4",
]


class TestBenchCli:
    def test_self_contained_fleet_bench(self, tmp_path, capsys) -> None:
        metrics = tmp_path / "bench.prom"
        code = main([
            "bench", "--shards", "2", "--redundancy", "2",
            "--clients", "1", "2", "--ops", "8",
            "--run-dir", str(tmp_path / "run"),
            "--metrics-out", str(metrics),
            *FAST_DEVICE,
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "IOPS" in out and "p99ms" in out
        rows = [line for line in out.splitlines()
                if re.match(r"\s+\d+\s+closed", line)]
        assert len(rows) == 2
        # The router's own counters land in the bench metrics dump.
        text = metrics.read_text()
        assert re.search(r"^repro_cluster_writes \d+", text, re.M)
        assert re.search(r"^repro_cluster_replica_writes \d+", text, re.M)

    def test_redundancy_beyond_fleet_exits_2(self, capsys) -> None:
        code = main(["bench", "--shards", "2", "--redundancy", "5",
                     *FAST_DEVICE])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_state_file_exits_2(self, tmp_path, capsys) -> None:
        code = main(["bench", "--connect-state",
                     str(tmp_path / "absent.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_state_file_exits_2(self, tmp_path, capsys) -> None:
        state = tmp_path / "state.json"
        state.write_text("{not json")
        code = main(["bench", "--connect-state", str(state)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_workload_is_refused_before_any_shard_starts(
        self, tmp_path, capsys
    ) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--shards", "2", "--workload", "bogus",
                  "--run-dir", str(tmp_path / "run")])
        assert excinfo.value.code == 2
        assert (
            "argument --workload: invalid choice: 'bogus'"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "run").exists()


class TestShardFlags:
    def test_bad_value_is_rejected_by_this_cli(self, capsys) -> None:
        # Not by a shard's ``repro.server serve`` usage text in a log file.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--blocks", "x"])
        assert excinfo.value.code == 2
        assert (
            "python -m repro.cluster serve: error: argument --blocks"
            in capsys.readouterr().err
        )

    def test_every_server_flag_is_forwarded(self) -> None:
        args = _shard_flags().parse_args([
            "--admission", "reject", "--tenant-credit-window", "8",
            "--blocks", "4", "--fsync-policy", "always",
        ])
        extra = _shard_extra_args(args)
        pairs = dict(zip(extra[::2], extra[1::2]))
        assert pairs["--admission"] == "reject"
        assert pairs["--tenant-credit-window"] == "8"
        assert pairs["--blocks"] == "4"
        assert pairs["--fsync-policy"] == "always"
        assert pairs["--page-bytes"] == "512"  # the server runner's default
        # Off unless given: the shard keeps its own default (no QoS window).
        unset = _shard_extra_args(_shard_flags().parse_args([]))
        assert "--tenant-credit-window" not in unset


class TestServeCli:
    def test_serve_until_sigterm_flushes_merged_metrics(
        self, tmp_path
    ) -> None:
        """The CI smoke flow: serve a fleet, bench through the state
        file, SIGTERM, assert the merged shard-labelled metrics dump."""
        metrics = tmp_path / "cluster.prom"
        state = tmp_path / "state.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster", "serve",
             "--shards", "2", "--state-file", str(state),
             "--run-dir", str(tmp_path / "run"),
             "--metrics-out", str(metrics), *FAST_DEVICE],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            for line in process.stdout:
                if "shards up" in line:
                    break
            else:
                raise AssertionError("fleet never reported up")
            assert state.exists()
            fleet = json.loads(state.read_text())
            assert len(fleet["shards"]) == 2

            code = main(["bench", "--connect-state", str(state),
                         "--clients", "1", "--ops", "8"])
            assert code == 0

            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        assert "cluster stopped" in out
        text = metrics.read_text()
        # Merged dump: per-shard serve counters carry the shard label.
        assert re.search(
            r'^repro_server_requests\{shard="\d"\} \d+', text, re.M
        ), text[:2000]
