"""Smoke test of the end-to-end benchmark at ``--scale smoke``.

Every workload must pass the benchmark's correctness checks and emit
exactly the end-to-end (``--trace 0``) and per-layer (``--trace 1``)
metrics ``BENCHMARK.json`` names, with the units it gives.  The two
invocations of a workload run concurrently to keep the test short.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULTS = HERE / "results"


def _start(workload: str, trace: int) -> subprocess.Popen:
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"smoke-{workload}-{trace}.jsonl"
    out.unlink(missing_ok=True)
    return subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke", "--out", str(out),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _result(proc: subprocess.Popen) -> dict:
    try:
        stdout, stderr = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    assert proc.returncode == 0, stderr
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_workload_smoke(workload):
    procs = {trace: _start(workload, trace) for trace in (0, 1)}
    results = {trace: _result(proc) for trace, proc in procs.items()}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = results[trace]
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert result["failed"] == 0
        emitted = {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
        assert emitted == {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert all(
            isinstance(m["value"], (int, float))
            for m in result["metrics"].values()
        )
