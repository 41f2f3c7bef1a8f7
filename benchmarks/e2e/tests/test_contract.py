"""BENCHMARK.json, the command it names, and the quick end-to-end run."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import metrics
from benchmarks.e2e.inprocess import TABLE1_GOLDEN

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_manifest():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert recorded == metrics.manifest()


def test_names_units_and_bounds_fit_the_contract():
    manifest = metrics.manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in manifest["end_to_end"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    assert len(manifest["per_layer"]) <= 128
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 12) <= 3420


def test_golden_is_the_table1_block_of_results_full():
    block = (ROOT / "results_full.txt").read_text().split("\n\n")[0]
    assert block.split("\n", 1)[1] == TABLE1_GOLDEN


def test_command_fails_quietly_without_the_repo(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [*metrics.COMMAND, "--workload", "device-wom-gc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_quick_run_prints_every_metric_and_leaves_nothing_behind(tmp_path):
    out = tmp_path / "quick.json"
    # A journal some killed run left behind is the suite's to clear away.
    stale = ROOT / ".bench_tmp" / "data-stale"
    stale.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    for name in metrics.WORKLOADS:
        workload = report["workloads"][name]
        assert workload["correct"] and workload["failed_op_share"] == 0
        assert set(workload["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert set(workload["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        assert all(row["median"] > 0 for row in workload["end_to_end"].values())
        for metric in metrics.END_TO_END:
            assert metric.name in done.stdout
    for name in ("table1-4k", "device-wom-gc"):
        layers = report["workloads"][name]["per_layer"]
        assert layers["trace.unattributed_share"] <= 0.1
    assert TABLE1_GOLDEN in "\n".join(
        line[3:] for line in done.stdout.splitlines()
    )
    assert not (ROOT / ".bench_tmp").exists()
