"""Smoke test of the benchmark at toy scale, in seconds:

    python3 -m pytest perfbench/test_harness.py

Every workload runs once untraced and once traced. Each run must pass its
output checks and emit every metric BENCHMARK.json names, finite and with
its unit. A checkout without the spdt source must be refused.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "toy"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate = failed / attempted
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if trace:
        assert result["metrics"]["bench.error_rate"]["value"] == 0


def test_refuses_checkout_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "build", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
