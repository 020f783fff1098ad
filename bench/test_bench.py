"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Runs a small subset of each workload, traced and untraced, and checks the
result line against BENCHMARK.json: every metric it names is emitted with
its unit, and every answer matches the frozen reference.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

# Every workload run.py offers, `large` included, which BENCHMARK.json does
# not gate.
from run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--trace", str(trace),
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if workload == "sweep" and trace:
        # Z/2 x Z/4 is in the smoke subset; its closed form is known wrong
        assert result["metrics"]["relations.formula_mismatches"]["value"] == 1


def test_refuses_without_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sweep", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
