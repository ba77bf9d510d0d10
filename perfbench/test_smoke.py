"""Smoke test of the benchmark itself, on a one-delta slice of coarse-repeats.

Run from the repository root (about 20 s):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((BENCH_DIR / "manifest.json").read_text())


def _run(cwd, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coarse-repeats",
         "--seed", str(MANIFEST["seeds"]["default"]), "--seconds", "1",
         "--trace", str(trace), "--rows", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    done = _run(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_every_layer_metric_says_what_it_should_move():
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    families = {re.sub(r"\.n\d+$", "", name) for name in units}
    assert families == set(MANIFEST["moves"])
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for move in MANIFEST["moves"].values():
        assert set(move["workloads"]) <= workloads
        assert set(move["metrics"]) <= end_to_end
    assert all(units[name] == "count" for name in MANIFEST["counts"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
