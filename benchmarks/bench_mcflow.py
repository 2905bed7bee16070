"""Benchmark PERF-FW: Frank-Wolfe F-MCF solver, cold vs warm start.

The interval sweep inside Random-Schedule re-solves near-identical F-MCF
instances hundreds of times; the warm start (a ``RelaxationSession``
carrying the previous solve's flow rows) is what makes the full Figure 2
tractable, and this benchmark quantifies the gap.  The array
engine (PR 4) is additionally pinned against the retained
``FrankWolfeSolverReference`` on the 120-commodity cold solve — the
headline speedup lands in ``BENCH_mcflow.json`` (target: >= 5x; the
assert uses a conservative floor so loaded CI machines stay green).
"""

from __future__ import annotations

import time

import pytest

from record import record_bench
from tests.oracles.mcflow import FrankWolfeSolverReference
from repro.power import PowerModel
from repro.routing import (
    Commodity,
    FrankWolfeSolver,
    RelaxationSession,
    envelope_cost,
)
from repro.topology import fat_tree

TOPOLOGY = fat_tree(8)


def _commodities(n: int):
    hosts = TOPOLOGY.hosts
    return [
        Commodity(i, hosts[i % 64], hosts[(i * 7 + 67) % 128], 0.5 + (i % 5) * 0.3)
        for i in range(n)
    ]


def _solver():
    return FrankWolfeSolver(
        TOPOLOGY,
        envelope_cost(PowerModel.quadratic()),
        max_iterations=60,
        gap_tolerance=1e-3,
    )


def _reference_solver():
    return FrankWolfeSolverReference(
        TOPOLOGY,
        envelope_cost(PowerModel.quadratic()),
        max_iterations=60,
        gap_tolerance=1e-3,
    )


@pytest.mark.benchmark(group="frank-wolfe")
@pytest.mark.parametrize("num_commodities", [20, 60, 120])
def test_cold_solve(benchmark, num_commodities):
    solver = _solver()
    commodities = _commodities(num_commodities)
    solution = benchmark.pedantic(
        lambda: solver.solve(commodities), rounds=3, iterations=1
    )
    assert solution.relative_gap <= 1e-3 or solution.iterations == 60


@pytest.mark.benchmark(group="frank-wolfe")
def test_warm_resolve(benchmark):
    solver = _solver()
    commodities = _commodities(60)
    # Perturb one commodity (as an interval boundary does) and re-solve.
    changed = list(commodities)
    changed[0] = Commodity("new", TOPOLOGY.hosts[3], TOPOLOGY.hosts[90], 1.0)

    def first_solve():
        # Untimed: the session's first solve, which the re-solve diffs.
        session = RelaxationSession(solver)
        session.solve(commodities)
        return (session,), {}

    solution = benchmark.pedantic(
        lambda session: session.solve(changed),
        setup=first_solve,
        rounds=5,
        iterations=1,
    )
    assert solution.iterations <= 60


def test_cold_speedup_vs_reference():
    """Array engine vs retained reference, 120-commodity cold solve."""
    commodities = _commodities(120)

    def best_of(factory, repeats):
        elapsed = float("inf")
        solution = None
        for _ in range(repeats):
            solver = factory()
            start = time.perf_counter()
            solution = solver.solve(commodities)
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed, solution

    new_s, new_sol = best_of(_solver, 4)
    ref_s, ref_sol = best_of(_reference_solver, 3)
    speedup = ref_s / new_s
    record_bench(
        "mcflow",
        wall_clock_s=new_s,
        topology=TOPOLOGY.name,
        extra={
            "commodities": 120,
            "reference_wall_clock_s": ref_s,
            "speedup_vs_reference": speedup,
            "target_speedup": 5.0,
            "new_iterations": new_sol.iterations,
            "reference_iterations": ref_sol.iterations,
            "new_relative_gap": new_sol.relative_gap,
            "reference_relative_gap": ref_sol.relative_gap,
        },
    )
    # Certified solutions must agree (both converged to 1e-3).
    assert new_sol.lower_bound <= ref_sol.objective * (1.0 + 1e-9)
    assert ref_sol.lower_bound <= new_sol.objective * (1.0 + 1e-9)
    # Conservative floor (documented target: 5x on an idle machine).
    assert speedup >= 2.0
