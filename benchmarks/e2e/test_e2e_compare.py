"""``compare.py`` refuses record sets that cannot be compared.

Two sets must hold the same workloads, seeds, ``--scale``, ``--seconds``
and kernel backend; anything else exits 2 without verdicts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _record(workload: str, seed: int, **changes) -> dict:
    record = {
        "workload": workload,
        "seed": seed,
        "scale": "full",
        "seconds": 30.0,
        "trace": 0,
        "backend": "python",
        "raw_flows_per_s": 100.0 + seed,
        "metrics": {
            m["name"]: {"value": 1.0 + seed / 100, "unit": m["unit"]}
            for m in CONTRACT["end_to_end"]
        },
    }
    record.update(changes)
    return record


def _write(path: Path, records: list[dict]) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def _compare(tmp_path: Path, a: list[dict], b: list[dict]) -> int:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "compare.py"),
            _write(tmp_path / "a.jsonl", a), _write(tmp_path / "b.jsonl", b),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode


def _set(**changes) -> list[dict]:
    return [_record(w, seed, **changes) for w in WORKLOADS for seed in (1, 2, 3)]


def test_identical_sets_compare(tmp_path):
    assert _compare(tmp_path, _set(), _set()) == 0


@pytest.mark.parametrize(
    "b",
    [
        pytest.param(_set()[3:], id="workload-missing-from-b"),
        pytest.param(_set() + [_record("extra", 1)], id="workload-only-in-b"),
        pytest.param(_set(scale="smoke"), id="scale"),
        pytest.param(_set(seconds=10.0), id="seconds"),
        pytest.param(_set(backend="compiled"), id="backend"),
        pytest.param([_record(w, s + 1) for w in WORKLOADS for s in (1, 2, 3)], id="seeds"),
    ],
)
def test_mismatched_sets_are_refused(tmp_path, b):
    assert _compare(tmp_path, _set(), b) == 2
