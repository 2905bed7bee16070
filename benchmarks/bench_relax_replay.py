"""Benchmark PERF-RELAX-REPLAY: Algorithm 2 as a streaming policy.

Replays a Poisson trace on the paper's k = 8 fat-tree through
:class:`~repro.traces.policies.RelaxationRoundingPolicy` — the F-MCF
relaxation + randomized rounding pipeline run window by window against
the committed background.  Each window's elementary intervals are
solved together as one stacked Frank–Wolfe problem
(:meth:`~repro.routing.mcflow.FrankWolfeSolver.solve_stacked`, DESIGN.md
Section 16).  Two measurements land in ``BENCH_relax_replay.json``:

* the headline 10k-flow warm replay (one pipeline — solver, path
  registry, walk cache — cached by the policy across windows, one
  stacked solve per window, interval-resolved background), with the
  stacked solve's rounds per window (the most iterations any interval
  of the window took) and its mean per-interval iterations,
* the warm-vs-cold speedup at a matched smaller trace, where "cold"
  means a fresh pipeline per window (``tests.oracles.policies.
  ColdRelaxationPolicy`` drops the cache before every window: the
  committed routes are identical; only the registry and walk cache
  start empty).

The speedup assert is a bound set from the ratio measured on a 2-vCPU
VM (see the comment at it), with room for a loaded machine.

The arrival rate is lower than ``bench_traces.py``'s (25/s vs 100/s):
the relaxation solves one F-MCF per elementary interval, so its natural
operating point is moderate window occupancy, not the 1000-flow windows
the O(path) heuristics shrug off.  ``BENCH_RELAX_REPLAY_FLOWS``
overrides the headline trace length.
"""

from __future__ import annotations

import os
import time

import pytest

from record import record_bench
from tests.oracles.policies import ColdRelaxationPolicy
from repro.core.dcfsr import RelaxationPipeline
from repro.power import PowerModel
from repro.topology import fat_tree
from repro.traces import (
    PoissonProcess,
    RelaxationRoundingPolicy,
    ReplayEngine,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
)

TOPOLOGY = fat_tree(8)
POWER = PowerModel.quadratic()
WINDOW = 4.0
ARRIVAL_RATE = 25.0
NUM_FLOWS = int(os.environ.get("BENCH_RELAX_REPLAY_FLOWS", "10000"))
#: Matched-shape trace for the warm-vs-cold ratio (two replays of it run
#: after the headline).
COLD_FLOWS = min(NUM_FLOWS, 2000)


def _trace(target_flows: int) -> list:
    spec = TraceSpec(
        arrivals=PoissonProcess(ARRIVAL_RATE),
        duration=target_flows / ARRIVAL_RATE,
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=1,
    )
    return list(generate_trace(TOPOLOGY, spec))


def _run(trace: list, warm: bool) -> tuple[float, object]:
    policy = (RelaxationRoundingPolicy if warm else ColdRelaxationPolicy)(
        seed=0,
        fw_max_iterations=40,
        fw_gap_tolerance=5e-3,
    )
    engine = ReplayEngine(TOPOLOGY, POWER, policy, window=WINDOW)
    start = time.perf_counter()
    report = engine.run(iter(trace))
    return time.perf_counter() - start, report


@pytest.mark.benchmark(group="trace-replay")
def test_relax_replay_throughput(benchmark, monkeypatch):
    trace = _trace(NUM_FLOWS)
    # Per window: the most iterations any of its intervals took (the
    # stacked solve's rounds) and the intervals' mean.
    window_rounds: list[int] = []
    interval_iterations: list[int] = []
    solve = RelaxationPipeline.solve

    def counted(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        iterations = [iv.solution.iterations for iv in result.intervals]
        window_rounds.append(max(iterations))
        interval_iterations.extend(iterations)
        return result

    monkeypatch.setattr(RelaxationPipeline, "solve", counted)

    def run():
        return _run(trace, warm=True)

    warm_s, report = benchmark.pedantic(run, rounds=1, iterations=1)
    monkeypatch.undo()
    assert report.flows_served == len(trace)
    assert report.miss_rate == 0.0  # density over the span, Theorem 4

    small = _trace(COLD_FLOWS)
    warm_small_s, warm_small = _run(small, warm=True)
    cold_small_s, cold_small = _run(small, warm=False)
    assert cold_small.flows_served == warm_small.flows_served
    speedup = cold_small_s / warm_small_s
    # A cached pipeline against a fresh one per window (same routes).
    # Without a cross-interval warm start the carried caches buy little:
    # 1.04x measured on a 2-vCPU VM, 0.75x the floor.
    assert speedup >= 0.75, f"warm-vs-cold speedup {speedup:.2f}x < 0.75x"

    record_bench(
        "relax_replay",
        wall_clock_s=warm_s,
        flows_per_sec=len(trace) / warm_s,
        seed=1,
        topology=f"fat_tree(8) x {len(trace)} flows, window {WINDOW}",
        extra={
            "windows": report.windows,
            "total_energy": report.total_energy,
            "peak_link_rate": report.peak_link_rate,
            "max_weight_drift": report.max_weight_drift,
            "stacked_rounds_per_window": (
                sum(window_rounds) / len(window_rounds)
            ),
            "interval_iterations_mean": (
                sum(interval_iterations) / len(interval_iterations)
            ),
            "warm_vs_cold_speedup": speedup,
            "cold_flows": len(small),
            "warm_small_s": warm_small_s,
            "cold_small_s": cold_small_s,
        },
    )
    benchmark.extra_info["flows"] = report.flows_seen
    benchmark.extra_info["warm_vs_cold_speedup"] = speedup
