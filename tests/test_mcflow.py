"""Tests for the Frank–Wolfe fractional MCF solver."""

from __future__ import annotations

import numpy as np
import pytest

from tests.oracles.convex import solve_fmcf_reference
from repro.errors import SolverError, ValidationError
from repro.power import PowerModel
from repro.routing import (
    Commodity,
    FrankWolfeSolver,
    RelaxationSession,
    envelope_cost,
)
from repro.topology import build_topology, dumbbell, fat_tree, line, star


def make_solver(topology, power=None, **kwargs):
    power = power or PowerModel.quadratic()
    defaults = dict(max_iterations=500, gap_tolerance=1e-6)
    defaults.update(kwargs)
    return FrankWolfeSolver(topology, envelope_cost(power), **defaults)


class TestAgainstReference:
    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_dumbbell_two_commodities(self, alpha):
        topo = dumbbell(2, 2)
        power = PowerModel(alpha=alpha)
        cost = envelope_cost(power)
        fw = make_solver(topo, power)
        demands = [("l0", "r0", 2.0), ("l1", "r1", 3.0)]
        sol = fw.solve([Commodity(i, s, d, v) for i, (s, d, v) in enumerate(demands)])
        ref = solve_fmcf_reference(
            topo, demands, cost.scalar_value, cost.scalar_derivative
        )
        assert sol.objective == pytest.approx(ref.objective, rel=1e-4)

    def test_star_crossing_commodities(self):
        topo = star(4)
        power = PowerModel.quadratic()
        cost = envelope_cost(power)
        fw = make_solver(topo, power)
        demands = [("h0", "h1", 1.0), ("h2", "h3", 2.0), ("h0", "h3", 1.5)]
        sol = fw.solve([Commodity(i, s, d, v) for i, (s, d, v) in enumerate(demands)])
        ref = solve_fmcf_reference(
            topo, demands, cost.scalar_value, cost.scalar_derivative
        )
        assert sol.objective == pytest.approx(ref.objective, rel=1e-4)

    def test_powerdown_envelope_cost(self):
        """With sigma > 0 the envelope makes load-spreading less attractive."""
        topo = dumbbell(1, 1)
        power = PowerModel(sigma=4.0, mu=1.0, alpha=2.0)
        cost = envelope_cost(power)
        fw = make_solver(topo, power)
        sol = fw.solve([Commodity(0, "l0", "r0", 1.0)])
        ref = solve_fmcf_reference(
            topo, [("l0", "r0", 1.0)], cost.scalar_value, cost.scalar_derivative
        )
        assert sol.objective == pytest.approx(ref.objective, rel=1e-4)


class TestSolutionStructure:
    def test_path_flows_sum_to_demand(self):
        topo = fat_tree(4)
        fw = make_solver(topo, gap_tolerance=1e-5)
        h = topo.hosts
        comms = [Commodity(i, h[2 * i], h[2 * i + 8], 1.5) for i in range(3)]
        sol = fw.solve(comms)
        for c in comms:
            assert sum(sol.path_flows[c.id].values()) == pytest.approx(c.demand)

    def test_fractions_normalized(self):
        topo = fat_tree(4)
        fw = make_solver(topo, gap_tolerance=1e-5)
        h = topo.hosts
        sol = fw.solve([Commodity(0, h[0], h[-1], 2.0)])
        fractions = sol.path_fractions(0)
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(f > 0 for f in fractions.values())

    def test_equal_cost_paths_get_balanced(self):
        """A fat-tree pair with 4 equal-cost paths should split ~evenly
        under a strictly convex cost."""
        topo = fat_tree(4)
        fw = make_solver(topo, gap_tolerance=1e-7)
        h = topo.hosts
        sol = fw.solve([Commodity(0, h[0], h[-1], 4.0)])
        significant = [
            f for f in sol.path_fractions(0).values() if f > 0.05
        ]
        assert len(significant) == 4
        for fraction in significant:
            assert fraction == pytest.approx(0.25, abs=0.03)

    def test_link_loads_match_path_flows(self):
        topo = fat_tree(4)
        fw = make_solver(topo, gap_tolerance=1e-5)
        h = topo.hosts
        comms = [Commodity(i, h[i], h[i + 6], 1.0) for i in range(4)]
        sol = fw.solve(comms)
        rebuilt = np.zeros(topo.num_edges)
        for c in comms:
            rebuilt += sol.edge_flows(topo, c.id)
        assert rebuilt == pytest.approx(sol.link_loads, abs=1e-9)

    def test_gap_certificate(self):
        topo = fat_tree(4)
        fw = make_solver(topo, gap_tolerance=1e-5)
        h = topo.hosts
        sol = fw.solve([Commodity(i, h[i], h[15 - i], 1.0) for i in range(5)])
        assert sol.lower_bound <= sol.objective + 1e-12
        assert sol.relative_gap <= 1e-5 + 1e-12

    def test_paths_are_simple_and_valid(self):
        topo = fat_tree(4)
        fw = make_solver(topo, gap_tolerance=1e-5)
        h = topo.hosts
        sol = fw.solve([Commodity(0, h[0], h[-1], 1.0)])
        for path in sol.path_flows[0]:
            topo.validate_path(path, h[0], h[-1])


class TestWarmStart:
    """Warm re-solves run through a RelaxationSession, which carries the
    previous solve's flow rows into the next."""

    def test_warm_start_converges_fast(self):
        topo = fat_tree(4)
        session = RelaxationSession(make_solver(topo, gap_tolerance=1e-4))
        h = topo.hosts
        comms = [Commodity(i, h[i], h[i + 8], 1.0) for i in range(6)]
        cold = session.solve(comms)
        warm = session.solve(comms)
        assert warm.iterations <= 2
        assert warm.objective == pytest.approx(cold.objective, rel=1e-3)

    def test_warm_start_rescales_changed_demand(self):
        topo = dumbbell(1, 1)
        session = RelaxationSession(make_solver(topo))
        session.solve([Commodity(0, "l0", "r0", 1.0)])
        scaled = session.solve([Commodity(0, "l0", "r0", 3.0)])
        assert sum(scaled.path_flows[0].values()) == pytest.approx(3.0)

    def test_warm_start_with_new_commodity(self):
        topo = star(4)
        session = RelaxationSession(make_solver(topo))
        session.solve([Commodity(0, "h0", "h1", 1.0)])
        both = session.solve(
            [Commodity(0, "h0", "h1", 1.0), Commodity(1, "h2", "h3", 2.0)]
        )
        assert sum(both.path_flows[1].values()) == pytest.approx(2.0)


class TestValidation:
    def test_empty_commodities(self):
        fw = make_solver(line(2))
        with pytest.raises(ValidationError):
            fw.solve([])

    def test_duplicate_ids(self):
        fw = make_solver(star(4))
        with pytest.raises(ValidationError):
            fw.solve([Commodity(0, "h0", "h1", 1.0), Commodity(0, "h2", "h3", 1.0)])

    def test_bad_commodity(self):
        with pytest.raises(ValidationError):
            Commodity(0, "a", "a", 1.0)
        with pytest.raises(ValidationError):
            Commodity(0, "a", "b", 0.0)

    def test_unreachable_destination(self):
        topo = build_topology([("a", "b"), ("c", "d")], hosts=["a", "b", "c", "d"])
        fw = make_solver(topo)
        with pytest.raises(SolverError):
            fw.solve([Commodity(0, "a", "c", 1.0)])

    def test_solver_parameter_validation(self):
        with pytest.raises(ValidationError):
            make_solver(line(2), max_iterations=0)
        with pytest.raises(ValidationError):
            make_solver(line(2), gap_tolerance=0.0)
