"""Benchmark PERF-RELAX: the full interval relaxation at Figure-2 scale.

Random-Schedule's relaxation stage solves one F-MCF per elementary
interval over the paper's k = 8 fat-tree.  The stacked solve
(``solve_relaxation`` with the array-native solver: every interval one
block of a single Frank–Wolfe problem) is measured against the retained
reference solver driven through the legacy dict warm-start chain, one
interval after another — the relaxation Figure 2, the lower bound, and
every sigma/lambda ablation run.  Headline numbers land in
``BENCH_relaxation.json`` (target: >= 10x; the assert uses a
conservative floor so loaded CI machines stay green).

``BENCH_RELAXATION_FLOWS`` overrides the workload size (default 200,
Figure 2's largest sweep point; the array engine's advantage widens with
scale, ~4.4x at 120 flows vs ~7x at 200 on an idle machine).

The sweep honours the active ``repro.kernels`` backend: under
``REPRO_KERNELS=compiled`` the stacked run uses the numba Dijkstra
batch with incremental shortest-path trees and the fused pairwise
kernel, and the record's ``kernels`` blob says which backend actually
ran, so the trend table separates the tiers.  The floor assert stays
on the pure-Python comparison target (compiled numbers are recorded,
not gated — JIT-equipped CI legs vary too much for a hard ratio).
"""

from __future__ import annotations

import os
import time

from record import record_bench
from repro.core.relaxation import (
    IntervalSolution,
    RelaxationResult,
    default_cost,
    solve_relaxation,
)
from repro.flows import paper_workload
from repro.flows.intervals import TimeGrid
from repro.power import PowerModel
from repro.routing import Commodity, FrankWolfeSolver
from repro.routing.mcflow import FrankWolfeSolverReference
from repro.topology import fat_tree

TOPOLOGY = fat_tree(8)
NUM_FLOWS = int(os.environ.get("BENCH_RELAXATION_FLOWS", "200"))


def test_interval_sweep_speedup():
    power = PowerModel.quadratic()
    cost = default_cost(power)
    flows = paper_workload(TOPOLOGY, NUM_FLOWS, seed=0, horizon=(1.0, 100.0))
    grid = TimeGrid(flows)

    best_new = float("inf")
    for _ in range(2):
        solver = FrankWolfeSolver(TOPOLOGY, cost)
        start = time.perf_counter()
        result_new = solve_relaxation(flows, solver, grid)
        best_new = min(best_new, time.perf_counter() - start)

    reference = FrankWolfeSolverReference(TOPOLOGY, cost)
    start = time.perf_counter()
    solved, previous = [], None
    for interval in grid.intervals:
        active = grid.active_flows(interval)
        if active:
            previous = reference.solve(
                [Commodity(f.id, f.src, f.dst, f.density) for f in active],
                warm_start=previous,
            )
            ids = tuple(f.id for f in active)
            solved.append(IntervalSolution(interval, previous, ids))
    ref_s = time.perf_counter() - start
    result_ref = RelaxationResult(grid, tuple(solved))

    speedup = ref_s / best_new
    intervals = len(result_new.intervals)
    record_bench(
        "relaxation",
        wall_clock_s=best_new,
        flows_per_sec=NUM_FLOWS / best_new,
        seed=0,
        topology=TOPOLOGY.name,
        extra={
            "flows": NUM_FLOWS,
            "intervals": intervals,
            "reference_wall_clock_s": ref_s,
            "speedup_vs_reference": speedup,
            "target_speedup": 10.0,
            "new_lower_bound": result_new.lower_bound,
            "reference_lower_bound": result_ref.lower_bound,
            "new_objective": result_new.objective,
            "reference_objective": result_ref.objective,
        },
    )
    assert intervals == len(result_ref.intervals)
    # The stacked certified bound must be a genuine lower bound on the
    # reference's primal value, and vice versa, interval by interval.
    for iv_new, iv_ref in zip(result_new.intervals, result_ref.intervals):
        assert iv_new.solution.lower_bound <= iv_ref.solution.objective * (
            1.0 + 1e-9
        )
        assert iv_ref.solution.lower_bound <= iv_new.solution.objective * (
            1.0 + 1e-9
        )
    # Conservative floor (documented target: 10x on an idle machine).
    assert speedup >= 2.5
