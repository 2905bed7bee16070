#!/usr/bin/env python3
"""End-to-end replay benchmark: one workload, timed repetitions, checked.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload relax-poisson --seed 1 \\
        --seconds 30 --trace 0 [--out results.jsonl] [--scale smoke]

The run generates the workload's trace from ``--seed`` and replays it in
fresh child interpreters, one repetition each (at least three).  With
``--trace 0`` it then replays the trace through Greedy+Density for the
energy baseline and prints the end-to-end metrics; with ``--trace 1`` it
replays it once more under the per-layer tracer and prints the per-layer
metrics.  All of it fits in about ``--seconds``.  Every replay's output
is checked.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to stderr.
``--out`` appends the full record, per-repetition values included, for
``compare.py``.

Times are in seconds of a reference host (see ``workloads.HostClock``),
so a slow spell on a shared host does not read as a regression.  The
orchestrating process never imports the library, so each child's
``ru_maxrss`` is its own peak.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: The keys of ``workloads.WORKLOADS``, spelled out so that this process
#: never imports the library.
WORKLOAD_NAMES = ("relax-poisson", "online-burst", "dcfs-epoch", "sharded-churn")

#: Repetitions per run at least, by ``--scale``: the median needs three;
#: the smoke test needs two to check determinism.
MIN_REPS = {"full": 3, "smoke": 2}
MAX_REPS = 40
#: Windows per trace at full scale: the p90 window latency then has at
#: least ten windows beyond it.
MIN_WINDOWS = 100
#: Every child of a run must finish within this many seconds of its start.
RUN_LIMIT_S = 170


class BenchmarkError(RuntimeError):
    """A child replay failed to run (not a failed correctness check)."""


# ----------------------------------------------------------------------
# Child: one repetition in a fresh interpreter.
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> None:
    sys.path.insert(0, str(SRC))
    import resource

    from repro.kernels import kernel_info

    from layers import layer_metrics, sites
    from tracer import Tracer
    from workloads import (
        WORKLOADS,
        HostClock,
        Replay,
        build_power,
        build_topology,
        write_trace,
    )

    workload = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    path = str(RESULTS / f"trace-{args.workload}-{args.seed}-{os.getpid()}.jsonl")
    setup_clock = HostClock()
    setup_clock.mark()
    try:
        topology = build_topology()
        power = build_power()
        n = write_trace(
            workload, topology, args.seed, workload.flows[args.scale], path
        )
        replay = Replay(
            workload, topology, power, args.seed, path,
            greedy=args.child == "greedy",
        )
        setup_clock.mark()
        # Installed after set-up: shard workers fork untraced.
        tracer = Tracer(sites(replay.policy)) if args.child == "traced" else None
        with tracer or nullcontext():
            report = replay.run()
    finally:
        if os.path.exists(path):
            os.remove(path)
    raw_wall_s = replay.clock.raw_seconds

    windows = replay.service.poll() if replay.service is not None else []
    rep = {
        "flows": n,
        "fault_free": not workload.faults,
        "raw_wall_s": raw_wall_s,
        "wall_s": replay.clock.seconds,
        "setup_s": setup_clock.seconds,
        "samples_ms": [s * 1e3 for s in replay.samples],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": kernel_info()["backend"],
        "seen": report.flows_seen,
        "served": report.flows_served,
        "unserved": report.unserved,
        "misses": report.deadline_misses,
        "misses_attributed": report.misses_attributed_to_failure,
        "capacity_violations": report.capacity_violations,
        "total_energy": report.total_energy,
        "policy_fallbacks": report.policy_fallbacks,
        "max_resident_segments": report.max_resident_segments,
        "flows_rerouted": report.flows_rerouted,
        "repairs_triaged": report.repairs_triaged,
        "degraded_windows": report.degraded_windows,
        "shard_solve_s": sum(w.solve_s for w in windows),
        "cross_flows": sum(w.cross_flows for w in windows),
    }
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, raw_wall_s, rep)
        tracer.write(str(RESULTS / f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(rep))


# ----------------------------------------------------------------------
# Parent: repetitions, checks, metrics.
# ----------------------------------------------------------------------
def run_child(role: str, args: argparse.Namespace, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"{role} repetition ran past the {RUN_LIMIT_S}s run limit"
        ) from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{role} repetition exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive linear interpolation)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check(reps: list[dict], greedy: dict | None) -> list[str]:
    """Correctness of every repetition of one trace (and of its Greedy
    baseline); returns the failures found."""
    runs = [(f"rep {i}", rep) for i, rep in enumerate(reps)]
    if greedy is not None:
        runs.append(("greedy", greedy))
    problems = []
    for label, rep in runs:
        if rep["seen"] != rep["flows"]:
            problems.append(f"{label}: saw {rep['seen']} of {rep['flows']} flows")
        if rep["served"] + rep["unserved"] != rep["seen"]:
            problems.append(f"{label}: served + unserved != seen")
        if rep["capacity_violations"]:
            problems.append(
                f"{label}: {rep['capacity_violations']} capacity violations"
            )
        lost = rep["misses"] + rep["unserved"]
        if rep["fault_free"] and lost:
            problems.append(f"{label}: {lost} misses on a fault-free workload")
        if rep["misses_attributed"] > lost:
            problems.append(f"{label}: more misses attributed than missed")
    if len({len(rep["samples_ms"]) for rep in reps}) != 1:
        problems.append("window count differs across repetitions")
    energies = {repr(rep["total_energy"]) for rep in reps}
    if len(energies) != 1:
        problems.append(f"total_energy differs across repetitions: {energies}")
    backends = {rep["backend"] for _, rep in runs}
    if len(backends) != 1:
        problems.append(f"kernel backend differs across repetitions: {backends}")
    return problems


def window_latencies(reps: list[dict]) -> list[float]:
    """Each window's median latency over the repetitions.

    Every repetition replays the same trace, so window ``k`` is the same
    work each time; its median over repetitions drops a host hiccup that
    hit one repetition, where pooling the samples would keep it.
    """
    return [statistics.median(ms) for ms in zip(*(r["samples_ms"] for r in reps))]


def end_to_end(reps: list[dict], greedy: dict) -> dict:
    windows = window_latencies(reps)
    first = reps[0]
    lost = first["misses"] + first["unserved"]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "flows_per_s": (
            statistics.median(r["flows"] / r["wall_s"] for r in reps), "flows/s"
        ),
        "window_p50_ms": (statistics.median(windows), "ms"),
        "window_p90_ms": (percentile(windows, 90), "ms"),
        "energy_ratio": (first["total_energy"] / greedy["total_energy"], "ratio"),
        "on_time_ratio": (1.0 - lost / first["seen"], "fraction"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MiB"),
    }


def per_layer(reps: list[dict], traced: dict) -> dict:
    from tracer import overhead

    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead"] = (
        overhead(traced["wall_s"], [r["wall_s"] for r in reps]), "ratio"
    )
    return metrics


def measure(args: argparse.Namespace) -> dict:
    """Run the repetitions and the checks; returns the full record."""
    reps: list[dict] = []
    costs: list[float] = []
    started = monotonic()
    deadline = started + RUN_LIMIT_S
    while len(reps) < MAX_REPS:
        t = monotonic()
        reps.append(run_child("timed", args, deadline))
        costs.append(monotonic() - t)
        print(
            f"{args.workload} rep {len(reps)}: {reps[-1]['raw_wall_s']:.3f}s "
            f"replay, {reps[-1]['wall_s']:.3f}s on the reference host",
            file=sys.stderr,
        )
        # Stop while one more child fits: the baseline or traced replay.
        if (
            len(reps) >= MIN_REPS[args.scale]
            and monotonic() - started + 2 * statistics.median(costs) > args.seconds
        ):
            break
    if args.trace:
        traced = run_child("traced", args, deadline)
        # The traced repetition must replay bit for bit like the others.
        problems = check(reps + [traced], None)
        metrics = per_layer(reps, traced)
    else:
        greedy = run_child("greedy", args, deadline)
        problems = check(reps, greedy)
        metrics = end_to_end(reps, greedy)
    windows = len(reps[0]["samples_ms"])
    if args.scale == "full" and windows < MIN_WINDOWS:
        problems.append(f"only {windows} windows; p90 needs {MIN_WINDOWS}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": reps[0]["backend"],
        "reps": len(reps),
        "windows": windows,
        "raw_wall_s": [r["raw_wall_s"] for r in reps],
        # flows_per_s on plain wall time, for compare.py to show beside
        # the reference-host value.
        "raw_flows_per_s": statistics.median(
            r["flows"] / r["raw_wall_s"] for r in reps
        ),
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "problems": problems,
        "attempted": sum(r["seen"] for r in reps),
        # A flow stranded by an injected switch outage is the workload's
        # doing, not a failed operation; every other miss is a failure.
        "failed": sum(
            r["misses"] + r["unserved"] - r["misses_attributed"] for r in reps
        ),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="append the full record (JSON line) here")
    parser.add_argument("--child", choices=("timed", "traced", "greedy"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args)
        return 0
    if not (SRC / "repro").is_dir():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    correct = not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
