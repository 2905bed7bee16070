"""Tests for the reference convex solvers themselves."""

from __future__ import annotations

import pytest

from repro.analysis.convex import solve_fmcf_reference, solve_p1_reference
from repro.errors import ValidationError
from repro.flows import Flow, FlowSet
from repro.power import PowerModel
from repro.routing import envelope_cost
from repro.topology import dumbbell, line


class TestP1Reference:
    def test_single_flow_runs_at_density(self, quadratic):
        topo = line(2)
        flows = FlowSet(
            [Flow(id=1, src="n0", dst="n1", size=6.0, release=0, deadline=3)]
        )
        sol = solve_p1_reference(flows, topo, {1: ("n0", "n1")}, quadratic)
        assert sol.rates[1] == pytest.approx(2.0, rel=1e-4)
        assert sol.objective == pytest.approx(6.0 * 2.0, rel=1e-4)

    def test_two_disjoint_windows_independent(self, quadratic):
        topo = line(2)
        flows = FlowSet(
            [
                Flow(id=1, src="n0", dst="n1", size=2.0, release=0, deadline=1),
                Flow(id=2, src="n0", dst="n1", size=3.0, release=1, deadline=2),
            ]
        )
        paths = {1: ("n0", "n1"), 2: ("n0", "n1")}
        sol = solve_p1_reference(flows, topo, paths, quadratic)
        assert sol.rates[1] == pytest.approx(2.0, rel=1e-3)
        assert sol.rates[2] == pytest.approx(3.0, rel=1e-3)

    def test_interval_constraint_binds(self, quadratic):
        """Two flows with identical windows on one link must share it:
        combined transmission time == window length."""
        topo = line(2)
        flows = FlowSet(
            [
                Flow(id=1, src="n0", dst="n1", size=2.0, release=0, deadline=2),
                Flow(id=2, src="n0", dst="n1", size=4.0, release=0, deadline=2),
            ]
        )
        paths = {1: ("n0", "n1"), 2: ("n0", "n1")}
        sol = solve_p1_reference(flows, topo, paths, quadratic)
        busy = 2.0 / sol.rates[1] + 4.0 / sol.rates[2]
        assert busy == pytest.approx(2.0, rel=1e-3)


class TestFmcfReference:
    def test_single_commodity_splits_equally(self):
        """Two identical parallel routes and a strictly convex cost: the
        optimum splits the demand evenly."""
        from repro.topology import parallel_paths

        topo = parallel_paths(2)
        cost = envelope_cost(PowerModel.quadratic())
        ref = solve_fmcf_reference(
            topo, [("src", "dst", 2.0)], cost.scalar_value, cost.scalar_derivative
        )
        loads = [v for v in ref.link_loads.values() if v > 1e-6]
        assert len(loads) == 4  # both relay paths, 2 links each
        for v in loads:
            assert v == pytest.approx(1.0, abs=1e-3)

    def test_objective_value(self):
        topo = dumbbell(1, 1)
        cost = envelope_cost(PowerModel.quadratic())
        ref = solve_fmcf_reference(
            topo, [("l0", "r0", 2.0)], cost.scalar_value, cost.scalar_derivative
        )
        # Unique route l0-swL-swR-r0: 3 links at load 2 -> 3 * 4.
        assert ref.objective == pytest.approx(12.0, rel=1e-5)

    def test_rejects_nonpositive_demand(self):
        topo = dumbbell(1, 1)
        cost = envelope_cost(PowerModel.quadratic())
        with pytest.raises(ValidationError):
            solve_fmcf_reference(
                topo, [("l0", "r0", 0.0)], cost.scalar_value,
                cost.scalar_derivative,
            )

    def test_rejects_empty_demands(self):
        topo = dumbbell(1, 1)
        cost = envelope_cost(PowerModel.quadratic())
        with pytest.raises(ValidationError):
            solve_fmcf_reference(
                topo, [], cost.scalar_value, cost.scalar_derivative
            )
