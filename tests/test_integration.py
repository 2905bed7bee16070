"""Cross-module integration tests: the full pipeline on every fabric."""

from __future__ import annotations

import pytest

from tests.conftest import random_flows_on
from tests.oracles.packet import simulate_packets
from repro.core import solve_dcfsr, sp_mcf
from repro.flows import incast, paper_workload, shuffle
from repro.power import PowerModel
from repro.sim import simulate_fluid
from repro.topology import bcube, fat_tree, jellyfish, leaf_spine, vl2


FABRICS = [
    fat_tree(4),
    bcube(3, 1),
    vl2(4, 4, hosts_per_tor=2),
    leaf_spine(3, 2, hosts_per_leaf=3),
    jellyfish(8, 3, hosts_per_switch=2, seed=2),
]


@pytest.mark.parametrize("topology", FABRICS, ids=lambda t: t.name)
class TestEveryFabric:
    def test_pipeline_end_to_end(self, topology, quadratic):
        flows = random_flows_on(topology, 8, seed=42)
        rs = solve_dcfsr(flows, topology, quadratic, seed=42)
        sp = sp_mcf(flows, topology, quadratic)

        # Both schedules deadline-feasible.
        assert rs.schedule.verify(flows, topology, quadratic).ok
        assert sp.schedule.verify(flows, topology, quadratic).deadline_feasible

        # Energies sandwiched by the lower bound.
        assert rs.lower_bound <= rs.energy.total * (1 + 1e-9)
        assert rs.lower_bound <= sp.energy.total * (1 + 1e-9)

        # Fluid simulation agrees with analytical energy.
        sim = simulate_fluid(rs.schedule, flows, topology, quadratic)
        assert sim.total_energy == pytest.approx(rs.energy.total, rel=1e-9)
        assert sim.all_deadlines_met


class TestApplicationWorkloads:
    def test_incast_on_leafspine(self, quadratic):
        topo = leaf_spine(4, 2, hosts_per_leaf=4)
        agg = topo.hosts[0]
        flows = incast(topo, agg, num_workers=8, response_size=2.0,
                       deadline=4.0, seed=1)
        rs = solve_dcfsr(flows, topo, quadratic, seed=1)
        assert rs.schedule.verify(flows, topo, quadratic).ok
        # Every flow terminates at the aggregator.
        for fs in rs.schedule:
            assert fs.path[-1] == agg

    def test_shuffle_on_fattree(self, quadratic):
        topo = fat_tree(4)
        flows = shuffle(topo, topo.hosts[:4], volume=1.0, deadline=5.0)
        rs = solve_dcfsr(flows, topo, quadratic, seed=0)
        sp = sp_mcf(flows, topo, quadratic)
        assert rs.schedule.verify(flows, topo, quadratic).ok
        assert rs.energy.total <= sp.energy.total * (1 + 1e-9)

    def test_paper_workload_packet_validation(self, quadratic):
        topo = fat_tree(4)
        flows = paper_workload(topo, 10, horizon=(0.0, 30.0), seed=8)
        rs = solve_dcfsr(flows, topo, quadratic, seed=8)
        report = simulate_packets(rs.schedule, flows, packet_size=0.5)
        assert set(report.arrival_times) == {f.id for f in flows}


class TestAlphaConsistency:
    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_higher_alpha_rewards_spreading_more(self, alpha):
        """The RS-vs-SP gap should not invert under either paper alpha."""
        topo = fat_tree(4)
        power = PowerModel(alpha=alpha)
        flows = paper_workload(topo, 30, horizon=(1.0, 40.0), seed=5)
        rs = solve_dcfsr(flows, topo, power, seed=5)
        sp = sp_mcf(flows, topo, power)
        assert rs.energy.total < sp.energy.total


class TestHorizonEdgeCases:
    def test_simultaneous_release_and_deadline(self, quadratic):
        """All flows share one interval: the grid degenerates to K = 1."""
        from repro.flows import Flow, FlowSet

        topo = fat_tree(4)
        h = topo.hosts
        flows = FlowSet(
            Flow(id=i, src=h[i], dst=h[i + 8], size=2.0, release=0.0,
                 deadline=1.0)
            for i in range(4)
        )
        rs = solve_dcfsr(flows, topo, quadratic, seed=0)
        assert rs.relaxation.grid.num_intervals == 1
        assert rs.schedule.verify(flows, topo, quadratic).ok

    def test_single_flow(self, quadratic):
        topo = fat_tree(4)
        flows = random_flows_on(topo, 1, seed=0)
        rs = solve_dcfsr(flows, topo, quadratic, seed=0)
        sp = sp_mcf(flows, topo, quadratic)
        # A single flow: RS must not do worse than SP by more than the
        # multipath-vs-single-path LB slack on its own route.
        flow = next(iter(flows))
        assert rs.schedule[flow.id].transmitted == pytest.approx(flow.size)
        assert sp.schedule[flow.id].transmitted == pytest.approx(
            flow.size, rel=1e-6
        )
