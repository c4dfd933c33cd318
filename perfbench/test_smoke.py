"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced at 10^4 samples, a
5-region exact subset and 1 000 rows.  Each run must print every metric of
BENCHMARK.json with its unit and report no failed operation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_without_failures(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["error_frac"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        error_line = next(line for line in lines if line.split()[:1] == ["error_frac"])
        assert error_line.split()[1:3] == ["0", "ratio"]


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources():
    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "rows", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
