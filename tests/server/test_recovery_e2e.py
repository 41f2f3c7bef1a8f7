"""Crash-recovery end-to-end: kill -9 the served device, restart, lose nothing."""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.durability import DurableStore
from repro.durability.checkpoint import MANIFEST_NAME
from repro.errors import ConnectionLostError, RecoveringError
from repro.flash import FlashGeometry
from repro.server import StorageClient, StorageService
from repro.server.runner import main
from repro.ssd import SSD

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

FAST_DEVICE = [
    "--page-bytes", "32", "--blocks", "8", "--pages-per-block", "8",
    "--erase-limit", "200", "--constraint-length", "4",
]

GEOM = FlashGeometry(blocks=8, pages_per_block=8, page_bits=256,
                     erase_limit=100)


def make_ssd() -> SSD:
    return SSD(geometry=GEOM, scheme="mfc-1/2-1bpc", utilization=0.5,
               constraint_length=4)


def payload(bits: int, lpn: int) -> np.ndarray:
    return np.random.default_rng(1000 + lpn).integers(
        0, 2, size=bits, dtype=np.uint8
    )


def serve_durable(data_dir, extra=()):
    """Start ``serve --data-dir`` as a subprocess; return (process, port)."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "serve", "--port", "0",
         "--data-dir", str(data_dir), *FAST_DEVICE, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    banner = process.stdout.readline()
    match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
    assert match, banner
    durability = process.stdout.readline()
    assert durability.startswith("durability:"), durability
    return process, int(match.group(1)), durability


class TestKillNineE2E:
    def test_acked_writes_survive_kill_nine(self, tmp_path) -> None:
        """SIGKILL mid-load; every acknowledged write must survive restart."""
        data_dir = tmp_path / "blockdev"
        process, port, banner = serve_durable(data_dir)
        acked: dict[int, np.ndarray] = {}
        try:
            assert "fresh" in banner

            async def load():
                client = await StorageClient.connect("127.0.0.1", port)
                stat = await client.stat()
                bits = stat["dataword_bits"]
                # Phase 1: sequential acknowledged writes to unique LPNs.
                for lpn in range(12):
                    data = payload(bits, lpn)
                    await client.write(lpn, data)
                    acked[lpn] = data
                # Phase 2: a burst left in flight when the power goes out.
                burst = [
                    asyncio.ensure_future(client.write(lpn, payload(bits, lpn)))
                    for lpn in range(12, 20)
                ]
                process.kill()  # SIGKILL: no flush, no atexit, no goodbye
                results = await asyncio.gather(*burst, return_exceptions=True)
                for lpn, result in zip(range(12, 20), results):
                    if not isinstance(result, Exception):
                        acked[lpn] = payload(bits, lpn)
                return sum(isinstance(r, ConnectionLostError) for r in results)

            asyncio.run(load())
            process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

        process2, port2, banner2 = serve_durable(data_dir)
        try:
            assert "recovered" in banner2, banner2

            async def verify():
                async with await StorageClient.connect(
                    "127.0.0.1", port2
                ) as client:
                    stat = await client.stat()
                    assert stat["durability"]["recovery"]["fresh"] is False
                    survivors = {}
                    for lpn in acked:
                        survivors[lpn] = await client.read(lpn)
                    return survivors, stat

            survivors, stat = asyncio.run(verify())
            for lpn, data in acked.items():
                assert np.array_equal(survivors[lpn], data), (
                    f"acknowledged write to lpn {lpn} lost across kill -9"
                )
            recovery = stat["durability"]["recovery"]
            assert recovery["replayed_writes"] >= len(acked)
            assert recovery["audit_failures"] == 0
        finally:
            process2.kill()
            process2.communicate()


class TestBatchFlushUnderGc:
    def test_acked_writes_survive_gc_inside_flushes_and_a_crash(
        self, tmp_path
    ) -> None:
        """16 writes in flight on a full MFC device: GC runs inside flushes.

        Every acknowledged write reads back through the server, and a crash
        image (the data dir copied while serving, so no final checkpoint)
        recovers to the same contents: checkpoint restore plus sequential
        journal replay must reproduce what the batched flushes built.
        """
        geometry = FlashGeometry(blocks=8, pages_per_block=4, page_bits=192,
                                 erase_limit=10_000)

        def small_ssd() -> SSD:
            return SSD(geometry=geometry, scheme="mfc-1/2-1bpc",
                       utilization=0.8, constraint_length=4)

        live, crash = tmp_path / "live", tmp_path / "crash"
        acked: dict[int, np.ndarray] = {}

        async def go():
            ssd = small_ssd()
            bits = ssd.logical_page_bits
            rng = np.random.default_rng(7)
            store = DurableStore(str(live), checkpoint_every=100)
            async with StorageService(ssd, store=store) as service:
                await service.recovery_done()
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    for _ in range(400):
                        if ssd.ftl.stats.gc_runs >= 25:
                            break
                        lpns = [int(lpn) for lpn in
                                rng.integers(0, ssd.logical_pages, 16)]
                        words = rng.integers(0, 2, (16, bits), dtype=np.uint8)
                        await asyncio.gather(*map(client.write, lpns, words))
                        acked.update(zip(lpns, words))  # one connection: in order
                    for lpn, data in acked.items():
                        assert np.array_equal(await client.read(lpn), data)
                shutil.copytree(live, crash)
                return ssd, service.stats.max_batch_size

        served, max_batch_size = asyncio.run(go())
        assert served.ftl.stats.gc_runs >= 25
        assert max_batch_size >= 2

        recovered = small_ssd()
        store = DurableStore(str(crash))
        try:
            report = store.recover(recovered)
        finally:
            store.close()
        assert report.replayed_writes > 0
        assert report.audit_failures == 0
        for lpn, data in acked.items():
            assert np.array_equal(recovered.read(lpn), data)
        assert (
            recovered.chip.block_erase_counts()
            == served.chip.block_erase_counts()
        )


class _GatedStore(DurableStore):
    """A store whose recovery blocks until the test releases it."""

    def __init__(self, data_dir: str, gate: threading.Event) -> None:
        super().__init__(data_dir)
        self._gate = gate

    def recover(self, ssd):
        self._gate.wait(timeout=30)
        return super().recover(ssd)


class TestRecoveringStatus:
    def test_data_ops_get_typed_error_while_stat_answers(
        self, tmp_path
    ) -> None:
        """During replay: reads/writes fail fast and typed, STAT still works."""

        async def go():
            gate = threading.Event()
            ssd = make_ssd()
            store = _GatedStore(str(tmp_path / "d"), gate)
            async with StorageService(ssd, store=store) as service:
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    stat_during = await client.stat()
                    with pytest.raises(RecoveringError):
                        await client.read(0)
                    with pytest.raises(RecoveringError):
                        await client.write(0, np.zeros(
                            ssd.logical_page_bits, dtype=np.uint8))
                    gate.set()
                    report = await service.recovery_done()
                    await client.write(1, np.ones(
                        ssd.logical_page_bits, dtype=np.uint8))
                    stat_after = await client.stat()
                    return stat_during, stat_after, report

        stat_during, stat_after, report = asyncio.run(go())
        assert stat_during["recovering"] is True
        assert "scheme" not in stat_during  # no device access mid-replay
        assert stat_after["recovering"] is False
        assert stat_after["durability"]["fsync_policy"] == "batch"
        assert report.fresh


class TestServeCliRefusals:
    def test_newer_format_data_dir_exits_2(self, tmp_path, capsys) -> None:
        data_dir = tmp_path / "future"
        data_dir.mkdir()
        (data_dir / MANIFEST_NAME).write_text(json.dumps(
            {"format_version": 99, "checkpoint": None, "journal": {}}
        ))
        code = main(["serve", "--data-dir", str(data_dir), *FAST_DEVICE])
        assert code == 2
        err = capsys.readouterr().err
        assert "format version 99" in err
