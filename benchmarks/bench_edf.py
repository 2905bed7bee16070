"""Benchmark PERF-EDF: single-link preemptive EDF at tens of thousands of jobs.

Two instance shapes on one link, both feasible by construction:

* ``fragmented`` — long-slack jobs weaving through a dense lattice of
  long blocked reservations (the Most-Critical-First shape: later rounds
  schedule against timelines fragmented by earlier rounds).  Runs here
  straddle several blocks each, which is exactly the work the array
  engine's vectorized available-time transform + batched back-map
  removes from the loop (~1.6x on an idle box).
* ``sparse`` — tightly packed short jobs with few tiny blocks; the sweep
  is heap-bound in both engines, so this is the honesty check that the
  array engine does not regress the easy case.

Results land in ``BENCH_edf_<shape>.json`` with the ratio to the scalar
engine (``edf_schedule_scalar``, recorded under the historical
``reference_s`` keys) per shape and the compiled-engine time (``repro.kernels``; which backend
actually ran is recorded in the payload's ``kernels`` blob).  When the
compiled backend is active a third case pushes the flat-array heap
sweep to ``BENCH_EDF_LARGE_JOBS`` jobs (default 10^6, the tentpole
target) and records ``BENCH_edf_large.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from record import record_bench
from repro import kernels
from repro.scheduling.edf import (
    EdfJob,
    edf_schedule_arrays,
    edf_schedule_compiled,
    edf_schedule_scalar,
)

NUM_JOBS = 30_000


def _fragmented() -> tuple[list[EdfJob], list[tuple[float, float]]]:
    rng = np.random.default_rng(1)
    jobs, cursor = [], 0.0
    for i in range(NUM_JOBS):
        start = cursor + float(rng.uniform(0.9, 1.5))
        duration = float(rng.uniform(0.3, 0.6))
        jobs.append(
            EdfJob(
                id=i,
                release=max(0.0, start - float(rng.uniform(0.0, 2.0))),
                deadline=start + duration + float(rng.uniform(20.0, 60.0)),
                duration=duration,
            )
        )
        cursor = start + duration
    blocked, t = [], 0.0
    rng2 = np.random.default_rng(2)
    while t < cursor * 1.2:
        gap = float(rng2.uniform(0.05, 0.12))
        block = float(rng2.uniform(0.1, 0.2))
        blocked.append((t + gap, t + gap + block))
        t += gap + block
    return jobs, blocked


def _sparse() -> tuple[list[EdfJob], list[tuple[float, float]]]:
    rng = np.random.default_rng(1)
    jobs, cursor = [], 0.0
    for i in range(NUM_JOBS):
        start = cursor + float(rng.uniform(0.0, 0.1))
        duration = float(rng.uniform(0.05, 0.4))
        jobs.append(
            EdfJob(
                id=i,
                release=max(0.0, start - float(rng.uniform(0.0, 1.0))),
                deadline=start + duration + float(rng.uniform(0.5, 3.0)),
                duration=duration,
            )
        )
        cursor = start + duration
    starts = np.random.default_rng(2).uniform(0.0, cursor, 2000)
    return jobs, [(float(s), float(s) + 0.001) for s in starts]


_SHAPES = {"fragmented": _fragmented, "sparse": _sparse}


@pytest.mark.benchmark(group="edf")
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_edf_event_sweep(benchmark, shape):
    jobs, blocked = _SHAPES[shape]()

    def run():
        return edf_schedule_arrays(jobs, blocked)

    placed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(placed) == len(jobs)

    start = time.perf_counter()
    arrays_s = None
    for _ in range(1):
        edf_schedule_arrays(jobs, blocked)
    arrays_s = time.perf_counter() - start
    start = time.perf_counter()
    reference = edf_schedule_scalar(jobs, blocked)
    reference_s = time.perf_counter() - start
    for jid, segments in placed.items():
        assert len(segments) == len(reference[jid])

    start = time.perf_counter()
    compiled = edf_schedule_compiled(jobs, blocked)
    compiled_s = time.perf_counter() - start
    assert compiled == placed

    record_bench(
        f"edf_{shape}",
        wall_clock_s=arrays_s,
        seed=1,
        topology=f"single link x {NUM_JOBS} jobs, {len(blocked)} blocks",
        extra={
            "jobs": NUM_JOBS,
            "blocked_segments": len(blocked),
            "segments_placed": sum(len(v) for v in placed.values()),
            "reference_s": reference_s,
            "speedup_vs_reference": reference_s / arrays_s,
            "compiled_s": compiled_s,
            "compiled_engine_backend": kernels.active_backend(),
        },
    )
    benchmark.extra_info["speedup_vs_reference"] = reference_s / arrays_s


@pytest.mark.benchmark(group="edf")
def test_edf_compiled_at_million_jobs(benchmark):
    """The tentpole scale target: 10^6 jobs through the compiled sweep.

    Only measured when numba actually compiled the kernels — the
    interpreted/python tiers would take minutes here, which is exactly
    the point of the compiled backend.
    """
    if kernels.active_backend() != "compiled":
        pytest.skip("compiled kernel backend not active")
    num_jobs = int(os.environ.get("BENCH_EDF_LARGE_JOBS", "1000000"))
    rng = np.random.default_rng(1)
    starts = np.cumsum(rng.uniform(0.2, 0.5, num_jobs))
    durations = rng.uniform(0.05, 0.15, num_jobs)
    releases = np.maximum(0.0, starts - rng.uniform(0.0, 1.0, num_jobs))
    deadlines = starts + durations + rng.uniform(5.0, 20.0, num_jobs)
    jobs = [
        EdfJob(id=i, release=float(releases[i]),
               deadline=float(deadlines[i]), duration=float(durations[i]))
        for i in range(num_jobs)
    ]

    def run():
        return edf_schedule_compiled(jobs)

    placed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(placed) == num_jobs

    start = time.perf_counter()
    edf_schedule_compiled(jobs)
    compiled_s = time.perf_counter() - start
    record_bench(
        "edf_large",
        wall_clock_s=compiled_s,
        flows_per_sec=num_jobs / compiled_s,
        seed=1,
        topology=f"single link x {num_jobs} jobs",
        extra={
            "jobs": num_jobs,
            "segments_placed": sum(len(v) for v in placed.values()),
        },
    )
