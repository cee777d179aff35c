"""Tests of the benchmark itself, on its --smoke mode.

    python3 -m pytest bench -q

Each test starts bench/run.py in a fresh process from the repository root,
so it also covers the output contract: one JSON object on the last line of
standard output.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] < result["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_repeat_their_counts():
    first, second = (result_of(run("solve-n1-maxvol", 1)) for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k, unit in want.items() if unit == "count"]
    assert [first["metrics"][k]["value"] for k in counts] == [
        second["metrics"][k]["value"] for k in counts
    ]
    assert first["metrics"]["polytope.brent_runs"]["value"] > 0
    assert first["metrics"]["solver.volume_evals"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("solve-n1-maxvol", 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
