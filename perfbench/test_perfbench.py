"""Tests of the benchmark itself (not part of the library's suite).

Run from the repository root with ``python -m pytest perfbench``.  Each run
of the benchmark here makes the workload's fewest jobs (``--seconds 1``):
one on certify, which builds an n = 48 operator and takes about 40 s, and
two on continuation, about 15 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced one-job runs per workload with the same seed."""
    return {w: [result(bench(w, 1)) for _ in range(2)]
            for w in ("certify", "continuation")}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(trace, key):
    out = result(bench("continuation", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


@pytest.mark.parametrize("workload, names", [
    ("continuation", ["melnikov.f_gradient_calls", "reduction.correct_calls",
                      "reduction.chord_iters"]),
    ("certify", ["linearized.dense_dim.n24", "linearized.dense_dim.n48"]),
])
def test_counts_repeat_for_a_fixed_seed(traced, workload, names):
    first, second = ([run["metrics"][n]["value"] for n in names]
                     for run in traced[workload])
    assert first == second
    assert all(v > 0 for v in first)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("continuation", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
