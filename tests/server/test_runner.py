"""CLI tests for ``python -m repro.server`` (serve and bench)."""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.obs.console import parse_prometheus
from repro.server import StorageClient
from repro.server.runner import _parse_hostport, main

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

FAST_DEVICE = [
    "--page-bytes", "32", "--blocks", "8", "--pages-per-block", "8",
    "--erase-limit", "200", "--constraint-length", "4",
]


class TestParseHostPort:
    def test_host_and_port(self) -> None:
        assert _parse_hostport("10.0.0.1:7631") == ("10.0.0.1", 7631)

    def test_bare_port_defaults_to_loopback(self) -> None:
        assert _parse_hostport(":7631") == ("127.0.0.1", 7631)

    def test_garbage_rejected(self) -> None:
        for bad in ("nope", "host:", "host:abc"):
            with pytest.raises(ConfigurationError):
                _parse_hostport(bad)


class TestBenchCli:
    def test_loopback_sweep_prints_table(self, capsys) -> None:
        code = main(["bench", "--clients", "1", "2", "--ops", "10",
                     *FAST_DEVICE])
        out = capsys.readouterr().out
        assert code == 0
        assert "IOPS" in out and "p99ms" in out
        rows = [line for line in out.splitlines()
                if re.match(r"\s+\d+\s+closed", line)]
        assert len(rows) == 2
        # Loopback rows also carry the server's flush count, its largest
        # batch and the device state.
        assert "flushes" in out and "maxB" in out
        assert all(row.split()[-1] == "healthy" for row in rows)

    def test_loopback_open_loop(self, capsys) -> None:
        code = main(["bench", "--mode", "open", "--rate", "400",
                     "--clients", "2", "--ops", "5", *FAST_DEVICE])
        out = capsys.readouterr().out
        assert code == 0
        (row,) = [line for line in out.splitlines()
                  if re.match(r"\s+\d+\s+open", line)]
        assert row.split()[2] == "10"  # clients x ops requests offered

    def test_connect_refused_is_a_config_error(self, capsys) -> None:
        code = main(["bench", "--connect", "127.0.0.1:1",
                     "--connect-timeout", "0.2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_connect_to_silent_server_exits_2(self, capsys) -> None:
        """A port that accepts TCP but never speaks repro must not hang
        the bench: the HELLO timeout surfaces as a clean exit 2."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(4)
        try:
            port = silent.getsockname()[1]
            start = time.monotonic()
            code = main(["bench", "--connect", f"127.0.0.1:{port}",
                         "--connect-timeout", "0.3"])
            elapsed = time.monotonic() - start
        finally:
            silent.close()
        assert code == 2
        assert elapsed < 10.0
        assert "error" in capsys.readouterr().err

    def test_metrics_out_written(self, tmp_path, capsys) -> None:
        metrics = tmp_path / "bench.prom"
        code = main(["bench", "--clients", "1", "--ops", "5",
                     "--metrics-out", str(metrics), *FAST_DEVICE])
        assert code == 0
        text = metrics.read_text()
        assert re.search(r"^repro_loadgen_requests 5", text, re.M)
        # The in-process server published on stop (5 writes + one STAT).
        assert re.search(r"^repro_server_requests 6$", text, re.M)
        assert re.search(r"^repro_ftl_host_writes 5$", text, re.M)

    def test_loopback_takes_the_shared_workload_and_trace_flags(
        self, tmp_path, capsys
    ) -> None:
        """The device, workload and telemetry flags ``bench`` shares with
        ``repro.ssd`` reach its loopback run: a WOM device half full, a
        phased schedule, and the span trace written at exit."""
        trace = tmp_path / "bench-trace.jsonl"
        code = main(["bench", "--clients", "1", "--ops", "8", *FAST_DEVICE,
                     "--scheme", "wom", "--utilization", "0.5",
                     "--workload", "zipf", "--phase", "zipf:4,uniform:4",
                     "--trace-out", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line for line in out.splitlines()
                if re.match(r"\s+\d+\s+closed", line)]
        assert len(rows) == 1 and rows[0].split()[2] == "8"
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert spans and all("name" in span for span in spans)


class TestServeCli:
    def test_serve_until_sigint_flushes_metrics(self, tmp_path) -> None:
        """The CI smoke flow: serve, drive, SIGINT, assert the metrics dump."""
        metrics = tmp_path / "server.prom"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "serve", "--port", "0",
             *FAST_DEVICE, "--metrics-out", str(metrics)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
            assert match, banner
            port = int(match.group(1))

            code = main(["bench", "--connect", f"127.0.0.1:{port}",
                         "--clients", "2", "--ops", "5"])
            assert code == 0

            process.send_signal(signal.SIGINT)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        assert "stopped:" in out
        text = metrics.read_text()
        requests = re.search(r"^repro_server_requests (\d+)", text, re.M)
        assert requests and int(requests.group(1)) >= 10
        # Without a sidecar nothing scraped: stop() published the device's
        # counters too, not only the serving layer's.
        assert re.search(r"^repro_ftl_host_writes 10$", text, re.M)
        assert re.search(r"^repro_flash_page_programs [1-9]", text, re.M)

    def test_sidecar_scrape_and_exit_dump_carry_device_counters(
        self, tmp_path
    ) -> None:
        metrics = tmp_path / "server.prom"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "serve", "--port", "0",
             "--obs-port", "0", *FAST_DEVICE, "--metrics-out", str(metrics)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            obs_banner = process.stdout.readline()
            obs = re.search(r"http://127\.0\.0\.1:(\d+)", obs_banner)
            assert obs, obs_banner
            banner = process.stdout.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
            assert match, banner

            code = main(["bench", "--connect",
                         f"127.0.0.1:{match.group(1)}",
                         "--clients", "2", "--ops", "5"])
            assert code == 0

            async def stat() -> dict:
                async with await StorageClient.connect(
                    "127.0.0.1", int(match.group(1))
                ) as client:
                    return await client.stat()

            served = asyncio.run(stat())
            sidecar = f"http://127.0.0.1:{obs.group(1)}"
            with urllib.request.urlopen(
                f"{sidecar}/metrics", timeout=5.0
            ) as response:
                live_text = response.read().decode()
            live = parse_prometheus(live_text)
            with urllib.request.urlopen(
                f"{sidecar}/healthz", timeout=5.0
            ) as response:
                health = json.loads(response.read())
            with urllib.request.urlopen(
                f"{sidecar}/debug/vars", timeout=5.0
            ) as response:
                debug_vars = json.loads(response.read())

            process.send_signal(signal.SIGINT)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        final = parse_prometheus(metrics.read_text())
        # "How much rewrite budget is left" can be put to a running server,
        # and the exit-time dump agrees with the last scrape.
        assert live.value("repro_ftl_host_writes") == 10
        for name in ("repro_ftl_host_writes", "repro_ftl_in_place_rewrites",
                     "repro_flash_page_programs", "repro_flash_block_erases",
                     "repro_server_requests", "repro_server_writes"):
            assert final.value(name) == live.value(name), name
        assert live.value("repro_server_tenant_requests", tenant="0") >= 10
        # One source of truth for the server's config.
        assert debug_vars["config"] == served["config"]
        assert set(served["config"]) == {
            "max_batch", "queue_depth", "credit_window", "admission",
            "tenant_credit_window",
        }
        assert health["status"] == "ok" and health["recovering"] is False
        assert "slo" not in health
        assert "repro_slo_" not in live_text

    def test_bad_device_knob_exits_2(self, capsys) -> None:
        code = main(["serve", "--utilization", "0.0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--trace-sample", "0"),
        ("--obs-port", "-1"),
        ("--obs-port", "70000"),
    ])
    def test_bad_obs_knob_exits_2(self, capsys, flags) -> None:
        # The telemetry knobs must fail fast even without --obs-port —
        # a typo silently ignored is worse than a refusal.
        code = main(["serve", *flags])
        assert code == 2
        assert "error" in capsys.readouterr().err
