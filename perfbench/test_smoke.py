"""Smoke test: every workload at a tiny scale, traced and untraced.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that each run prints every metric named in BENCHMARK.json with
its unit, that ``success_ratio`` is 1.0, that a hung server fails
served-topk's requests but not the run, and that the benchmark refuses
to run, without printing a result, where the program's source is
missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CATALOGUE["workloads"]]


def _run(cwd: Path, workload: str, trace: int,
         env=None) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "1.5", "--trace", str(trace),
               "--scale", "0.1"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300, env=env)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = CATALOGUE["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert result["metrics"]["success_ratio"]["value"] == 1.0


def test_hung_server_fails_requests_not_the_run():
    # The server's test hook sleeps in every worker for longer than the
    # client's 5 s request timeout.
    env = dict(os.environ, REPRO_SERVER_DELAY_MS="6000")
    done = _run(ROOT, "served-topk", 0, env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["success_ratio"]["value"] == 0.0
    assert result["metrics"]["throughput_ops_s"]["value"] == 0.0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
