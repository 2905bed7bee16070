"""Aggregate ``BENCH_*.json`` records into a ``BENCH_TREND.md`` table.

Every benchmark that calls :func:`record.record_bench` drops one flat
JSON record per run; CI uploads them as artifacts.  This script collects
any number of such records (one directory per run, or one directory
accumulating many runs) and renders a per-benchmark trend table — wall
clock, throughput, peak RSS across runs — so perf regressions show up as
a row-to-row jump instead of an archaeology project.

``--history FILE`` makes the trend *longitudinal*: the JSONL file's
records (accumulated by previous runs) merge with the current
directories' records, the combined set is **appended back** to the same
file (deduplicated, never overwritten away), and the table renders the
whole history.  CI downloads the previous run's uploaded history
artifact, passes it here, and re-uploads the grown file — so every CI
run adds one row per benchmark instead of replacing the table.

Usage::

    python benchmarks/trend.py                       # scan cwd
    python benchmarks/trend.py --dir bench-records --out BENCH_TREND.md
    python benchmarks/trend.py --dir runA --dir runB # compare two runs
    python benchmarks/trend.py --dir bench-records \\
        --history bench-records/BENCH_HISTORY.jsonl  # accumulate
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import time
from typing import Any, Iterable, Sequence

__all__ = [
    "load_records",
    "load_history",
    "merge_history",
    "save_history",
    "render_trend",
    "main",
]


def _scan_dirs(directories: Sequence[str]) -> list[str]:
    """Each directory plus its ``benchmarks/`` subdirectory, deduplicated.

    Transition shim for the record-location fix: records used to land in
    the invoking working directory (usually the repo root), now they
    default to ``benchmarks/`` — scanning both keeps old and new layouts
    readable from the same ``--dir``.
    """
    seen: set[str] = set()
    scan: list[str] = []
    for directory in directories:
        for candidate in (directory, os.path.join(directory, "benchmarks")):
            real = os.path.realpath(candidate)
            if real in seen:
                continue
            seen.add(real)
            scan.append(candidate)
    return scan


def load_records(directories: Sequence[str]) -> list[dict[str, Any]]:
    """Read every ``BENCH_*.json`` under the given directories (and their
    ``benchmarks/`` subdirectories — see :func:`_scan_dirs`)."""
    records: list[dict[str, Any]] = []
    for directory in _scan_dirs(directories):
        for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict) and payload.get("name"):
                payload["_source"] = path
                records.append(payload)
    return records


def load_history(path: str) -> list[dict[str, Any]]:
    """Read the JSONL history file (one record per line; tolerant)."""
    records: list[dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                if isinstance(payload, dict) and payload.get("name"):
                    records.append(payload)
    except OSError:
        return []
    return records


def _record_key(record: dict[str, Any]) -> tuple:
    return (
        str(record.get("name")),
        record.get("recorded_unix"),
        record.get("platform"),
    )


def merge_history(
    history: Iterable[dict[str, Any]], current: Iterable[dict[str, Any]]
) -> list[dict[str, Any]]:
    """History plus current records, deduplicated by (name, time, host)."""
    merged: list[dict[str, Any]] = []
    seen: set[tuple] = set()
    for record in list(history) + list(current):
        key = _record_key(record)
        if key in seen:
            continue
        seen.add(key)
        merged.append(record)
    return merged


def save_history(path: str, records: Iterable[dict[str, Any]]) -> None:
    """Write the merged history back as JSONL (``_source`` paths from the
    current run are transient and dropped)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            payload = {k: v for k, v in record.items() if k != "_source"}
            handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _fmt(value: Any, spec: str = "{:.4g}") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return spec.format(value)
    return str(value)


def _fmt_time(unix: Any) -> str:
    if not isinstance(unix, (int, float)):
        return "-"
    return time.strftime("%Y-%m-%d %H:%M", time.gmtime(unix))


def _extra_summary(extra: Any) -> str:
    if not isinstance(extra, dict) or not extra:
        return "-"
    parts = []
    for key in sorted(extra):
        value = extra[key]
        if isinstance(value, (int, float, str)):
            parts.append(f"{key}={_fmt(value)}")
    return ", ".join(parts) if parts else "-"


def render_trend(records: Iterable[dict[str, Any]]) -> str:
    """Render the markdown trend report."""
    by_name: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        by_name.setdefault(str(record["name"]), []).append(record)
    lines = [
        "# Benchmark trend",
        "",
        "One row per recorded run (oldest first); `extra` shows every "
        "scalar benchmark-specific measurement.",
        "",
    ]
    if not by_name:
        lines.append("_No BENCH_*.json records found._")
        return "\n".join(lines) + "\n"
    for name in sorted(by_name):
        rows = sorted(
            by_name[name], key=lambda r: r.get("recorded_unix") or 0.0
        )
        lines.append(f"## {name}")
        lines.append("")
        lines.append(
            "| recorded (UTC) | wall clock (s) | flows/s | peak RSS (MB) "
            "| topology | extra |"
        )
        lines.append("|---|---|---|---|---|---|")
        for row in rows:
            lines.append(
                "| {} | {} | {} | {} | {} | {} |".format(
                    _fmt_time(row.get("recorded_unix")),
                    _fmt(row.get("wall_clock_s")),
                    _fmt(row.get("flows_per_sec")),
                    _fmt(row.get("peak_rss_mb"), "{:.1f}"),
                    row.get("topology") or "-",
                    _extra_summary(row.get("extra")),
                )
            )
        lines.append("")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dir",
        action="append",
        default=None,
        help="directory holding BENCH_*.json records (repeatable; "
        "default: current directory)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_TREND.md",
        help="output markdown path (default: BENCH_TREND.md)",
    )
    parser.add_argument(
        "--history",
        default=None,
        help="JSONL history file: prior runs' records are merged in, the "
        "combined history is appended back to this file, and the trend "
        "renders the whole history (cross-run accumulation)",
    )
    args = parser.parse_args(argv)
    directories = args.dir or ["."]
    records = load_records(directories)
    if args.history:
        history = load_history(args.history)
        records = merge_history(history, records)
        save_history(args.history, records)
        print(
            f"history {args.history}: {len(history)} prior + "
            f"{len(records) - len(history)} new records"
        )
    report = render_trend(records)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote {args.out} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
