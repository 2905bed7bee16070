"""Tests for the baseline algorithms (SP+MCF and greedy marginal routing)."""

from __future__ import annotations

from tests.conftest import random_flows_on
from repro.core import (
    fractional_lower_bound,
    greedy_marginal_routing,
    sp_mcf,
)


class TestSpMcf:
    def test_uses_shortest_paths(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=0)
        result = sp_mcf(flows, ft4, quadratic)
        for flow in flows:
            assert result.paths[flow.id] == ft4.shortest_path(flow.src, flow.dst)

    def test_schedule_feasible(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=1)
        result = sp_mcf(flows, ft4, quadratic)
        report = result.schedule.verify(flows, ft4, quadratic)
        assert report.deadline_feasible, report.summary()

    def test_energy_at_least_lower_bound(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=2)
        result = sp_mcf(flows, ft4, quadratic)
        lb = fractional_lower_bound(flows, ft4, quadratic)
        assert result.energy.total >= lb * (1 - 1e-9)

    def test_exposes_dcfs_result(self, ft4, quadratic):
        flows = random_flows_on(ft4, 5, seed=3)
        result = sp_mcf(flows, ft4, quadratic)
        assert result.dcfs is not None
        assert set(result.dcfs.rates) == {f.id for f in flows}
        assert result.name == "SP+MCF"


class TestGreedyMarginal:
    def test_schedule_feasible(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=4)
        result = greedy_marginal_routing(flows, ft4, quadratic)
        report = result.schedule.verify(flows, ft4, quadratic)
        assert report.deadline_feasible

    def test_valid_paths(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=5)
        result = greedy_marginal_routing(flows, ft4, quadratic)
        for flow in flows:
            ft4.validate_path(result.paths[flow.id], flow.src, flow.dst)

    def test_spreads_load_vs_sp(self, quadratic):
        """Many same-pair flows: greedy must use more distinct paths than
        SP routing (which puts them all on one)."""
        from repro.flows import Flow, FlowSet
        from repro.topology import fat_tree

        topo = fat_tree(4)
        h = topo.hosts
        flows = FlowSet(
            Flow(id=i, src=h[0], dst=h[-1], size=5.0, release=0, deadline=2)
            for i in range(4)
        )
        greedy = greedy_marginal_routing(flows, topo, quadratic)
        sp = sp_mcf(flows, topo, quadratic)
        assert len(set(greedy.paths.values())) > len(set(sp.paths.values()))
        # The shared host-access links bottleneck both routings equally
        # under EDF serialization, so spreading can only tie or win.
        assert greedy.energy.total <= sp.energy.total * (1 + 1e-9)
