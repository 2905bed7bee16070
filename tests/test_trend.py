"""Tests for the longitudinal benchmark-trend accumulator.

``benchmarks/trend.py`` is a standalone script (not part of the
``repro`` package); it is loaded by file path here.  The property under
test is the cross-run contract CI relies on: given last run's
``BENCH_HISTORY.jsonl`` plus this run's ``BENCH_*.json`` records, the
history file grows by exactly the new records (deduplicated) and the
rendered trend shows one row per accumulated record.
"""

from __future__ import annotations

import importlib.util
import json
import os

_SPEC = importlib.util.spec_from_file_location(
    "bench_trend",
    os.path.join(os.path.dirname(__file__), "..", "benchmarks", "trend.py"),
)
trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trend)


def _record(name: str, when: float, wall: float) -> dict:
    return {
        "name": name,
        "wall_clock_s": wall,
        "recorded_unix": when,
        "platform": "test",
        "extra": {},
    }


def _write_record(directory, record) -> None:
    path = directory / f"BENCH_{record['name']}.json"
    path.write_text(json.dumps(record))


class TestHistoryMerge:
    def test_merge_dedupes_by_identity(self):
        history = [_record("a", 100.0, 1.0), _record("b", 100.0, 2.0)]
        merged = trend.merge_history(history, [
            _record("a", 100.0, 1.0),   # same run re-read: dropped
            _record("a", 200.0, 0.9),   # genuinely new
        ])
        assert len(merged) == 3
        assert [r["recorded_unix"] for r in merged if r["name"] == "a"] == [
            100.0, 200.0,
        ]

    def test_roundtrip_drops_transient_source(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record = _record("a", 100.0, 1.0)
        record["_source"] = "/tmp/somewhere"
        trend.save_history(str(path), [record])
        loaded = trend.load_history(str(path))
        assert loaded == [_record("a", 100.0, 1.0)]

    def test_missing_or_garbled_history_tolerated(self, tmp_path):
        assert trend.load_history(str(tmp_path / "absent.jsonl")) == []
        garbled = tmp_path / "bad.jsonl"
        garbled.write_text('not json\n{"name": "a", "recorded_unix": 1}\n')
        assert trend.load_history(str(garbled)) == [
            {"name": "a", "recorded_unix": 1}
        ]


class TestCliAccumulation:
    def test_two_runs_accumulate(self, tmp_path):
        run_dir = tmp_path / "records"
        run_dir.mkdir()
        history = tmp_path / "BENCH_HISTORY.jsonl"
        out = tmp_path / "BENCH_TREND.md"

        _write_record(run_dir, _record("fw", 100.0, 1.5))
        trend.main([
            "--dir", str(run_dir), "--history", str(history),
            "--out", str(out),
        ])
        assert len(trend.load_history(str(history))) == 1

        # "Next CI run": same benchmark, fresh record overwriting the file.
        _write_record(run_dir, _record("fw", 200.0, 1.2))
        trend.main([
            "--dir", str(run_dir), "--history", str(history),
            "--out", str(out),
        ])
        accumulated = trend.load_history(str(history))
        assert [r["recorded_unix"] for r in accumulated] == [100.0, 200.0]
        report = out.read_text()
        assert report.count("| 1970-01-01") == 2  # one row per run

    def test_without_history_flag_behaves_as_before(self, tmp_path):
        run_dir = tmp_path / "records"
        run_dir.mkdir()
        _write_record(run_dir, _record("fw", 100.0, 1.5))
        out = tmp_path / "BENCH_TREND.md"
        trend.main(["--dir", str(run_dir), "--out", str(out)])
        assert "fw" in out.read_text()
        assert not (tmp_path / "BENCH_HISTORY.jsonl").exists()


class TestRender:
    def test_every_scalar_extra_renders(self):
        record = _record("dcfs_scaling", 100.0, 1.0)
        record["extra"] = {
            "merges": 844,
            "paths_s": 0.25,
            "reference_wall_clock_s": 1.5,
            "rounds": 84,
            "speedup_vs_reference": 2.5,
            "timelines": 161,
        }
        report = trend.render_trend([record])
        for key, value in record["extra"].items():
            assert f"{key}={value}" in report
