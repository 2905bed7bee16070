#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark records.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl
    python3 benchmarks/e2e/compare.py A.jsonl        # one set's spreads

Each file holds the JSON lines ``run.py --out`` appends, one per
invocation (``--trace 0`` records only; traced records are skipped).
For every workload and end-to-end metric the table gives each side's
median and quartiles over its invocations, the spread (quartile distance
over the median) and a verdict from the bound in ``BENCHMARK.json``:

* ``unresolved`` - a side's spread exceeds the bound, unless every run
  of B beats every run of A (``better``);
* ``worse`` - B's median is worse than A's by more than the bound;
* ``better`` - B's median is better than A's by more than both spreads;
* ``within bound`` - otherwise.

Below each workload's ``flows_per_s`` row, a ``flows_per_s raw`` row
gives the same throughput on plain wall time instead of reference-host
time (see ``workloads.HostClock``), with its verdict under the same
bound, so that no verdict rests on the host-speed model alone.  The raw
row does not set the exit status: on a shared host it also measures the
neighbours.  When the two verdicts disagree, run both sets again.

Two sets are only comparable when they hold the same workloads, run the
same seeds at the same ``--scale`` and ``--seconds``, on the same kernel
backend; anything else is refused.  Exits 1 when a verdict is ``worse``
or ``unresolved``, 2 when the sets are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict:
    """``workload -> [record, ...]`` for the untraced records in ``path``."""
    by_workload = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    by_workload[record["workload"]].append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def refusal(a: dict, b: dict) -> str | None:
    """Why sets ``a`` and ``b`` are not comparable (None when they are)."""
    if set(a) != set(b):
        return (
            f"workloads differ: only in A {sorted(set(a) - set(b))}, "
            f"only in B {sorted(set(b) - set(a))}"
        )
    records = [r for runs in (*a.values(), *b.values()) for r in runs]
    for key in ("backend", "scale", "seconds"):
        values = {r[key] for r in records}
        if len(values) > 1:
            return f"{key} differs: {sorted(values)}"
    for workload in sorted(a):
        seeds_a = sorted(r["seed"] for r in a[workload])
        seeds_b = sorted(r["seed"] for r in b[workload])
        if seeds_a != seeds_b:
            return f"{workload}: seeds differ ({seeds_a} vs {seeds_b})"
    return None


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    """B against A for one ``BENCHMARK.json`` metric (see the module doc)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    med_a = statistics.median(a)
    change = sign * (statistics.median(b) - med_a) / abs(med_a)  # > 0: worse
    noise = max(spread(a), spread(b))
    if noise > metric["bound"]:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "better" if all_better else "unresolved"
    if change > metric["bound"]:
        return "worse"
    if -change > noise:
        return "better"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline records (JSON lines)")
    parser.add_argument("b", nargs="?", help="candidate records (JSON lines)")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a = load(args.a)
    b = load(args.b) if args.b else None
    if b is not None:
        reason = refusal(a, b)
        if reason:
            print(f"refused: {reason}", file=sys.stderr)
            return 2

    def cell(values: list[float]) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:12.6g} [{q1:.4g}, {q3:.4g}] {spread(values):6.1%}"

    rows = []  # (label, metric, record -> value, sets the exit status)
    for metric in contract["end_to_end"]:
        name = metric["name"]
        rows.append((name, metric, lambda r, n=name: r["metrics"][n]["value"], True))
        if name == "flows_per_s":
            rows.append((f"{name} raw", metric, lambda r: r["raw_flows_per_s"], False))

    status = 0
    header = f"{'workload':14s} {'metric':15s} {'bound':>6s}  {'A median [q1, q3] spread':>38s}"
    if b is not None:
        header += f"  {'B median [q1, q3] spread':>38s}  verdict"
    print(header)
    for workload in sorted(a):
        for label, metric, value, gated in rows:
            values_a = [value(r) for r in a[workload]]
            row = f"{workload:14s} {label:15s} {metric['bound']:6.0%}  {cell(values_a):>38s}"
            if b is not None:
                values_b = [value(r) for r in b[workload]]
                outcome = verdict(metric, values_a, values_b)
                if gated and outcome in ("worse", "unresolved"):
                    status = 1
                row += f"  {cell(values_b):>38s}  {outcome}"
                if not gated:
                    row += " (not gated)"
            print(row)
    return status


if __name__ == "__main__":
    sys.exit(main())
