"""Tests for the online density scheduler."""

from __future__ import annotations

import pytest

from tests.conftest import random_flows_on
from repro.core import (
    fractional_lower_bound,
    solve_dcfsr,
    solve_online_density,
    sp_mcf,
)
from repro.flows import Flow, FlowSet
from repro.power import PowerModel
from repro.topology import fat_tree


class TestFeasibility:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_deadlines_met(self, ft4, quadratic, seed):
        flows = random_flows_on(ft4, 10, seed=seed)
        result = solve_online_density(flows, ft4, quadratic)
        report = result.schedule.verify(flows, ft4, quadratic)
        assert report.ok, report.summary()

    def test_each_flow_at_density_over_span(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=3)
        result = solve_online_density(flows, ft4, quadratic)
        for fs in result.schedule:
            assert len(fs.segments) == 1
            assert fs.segments[0].rate == pytest.approx(fs.flow.density)

    def test_named(self, ft4, quadratic):
        flows = random_flows_on(ft4, 3, seed=4)
        assert solve_online_density(flows, ft4, quadratic).name == "Online+Density"


class TestQuality:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_above_lower_bound(self, ft4, quadratic, seed):
        flows = random_flows_on(ft4, 10, seed=seed)
        result = solve_online_density(flows, ft4, quadratic)
        lb = fractional_lower_bound(flows, ft4, quadratic)
        assert result.energy.total >= lb * (1 - 1e-9)

    def test_spreads_sequential_hotspot(self, quadratic):
        """Flows arriving one by one between the same pair must spread over
        the ECMP fan, unlike static shortest-path routing."""
        topo = fat_tree(4)
        h = topo.hosts
        flows = FlowSet(
            Flow(id=i, src=h[0], dst=h[-1], size=4.0, release=float(i) * 0.1,
                 deadline=float(i) * 0.1 + 2.0)
            for i in range(4)
        )
        online = solve_online_density(flows, topo, quadratic)
        assert len(set(online.paths.values())) > 1
        sp = sp_mcf(flows, topo, quadratic)
        assert online.energy.total <= sp.energy.total * (1 + 1e-9)

    def test_online_between_rs_and_strawman(self, ft4, quadratic):
        """On paper-style workloads the online policy should usually land
        between offline RS and worst-case behavior; assert the weak, always-
        true direction: it cannot beat the LB and RS is never 5x worse."""
        flows = random_flows_on(ft4, 12, seed=7)
        online = solve_online_density(flows, ft4, quadratic)
        rs = solve_dcfsr(flows, ft4, quadratic, seed=7)
        assert online.energy.total >= rs.lower_bound * (1 - 1e-9)
        assert online.energy.total <= 5 * rs.energy.total

    def test_deterministic(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=8)
        a = solve_online_density(flows, ft4, quadratic)
        b = solve_online_density(flows, ft4, quadratic)
        assert a.paths == b.paths
        assert a.energy.total == pytest.approx(b.energy.total)


class TestOneLoop:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_offline_paths_equal_a_one_window_replay(
        self, ft4, quadratic, seed
    ):
        """The offline solver and the streaming policy run one routing
        loop: a replay whose only window holds every flow routes each
        flow on the offline solver's path."""
        from repro.traces import OnlineDensityPolicy, ReplayEngine

        flows = random_flows_on(ft4, 40, seed=seed)
        offline = solve_online_density(flows, ft4, quadratic)
        t0, t1 = flows.horizon
        report = ReplayEngine(
            ft4,
            quadratic,
            OnlineDensityPolicy(),
            window=t1 - t0 + 1.0,
            keep_schedules=True,
        ).run(sorted(flows, key=lambda f: f.release))
        assert report.windows == 1
        assert {fs.flow.id: fs.path for fs in report.schedules} == (
            offline.paths
        )


class TestWindowIntegral:
    def test_window_integral_exact(self):
        from repro.scheduling import PiecewiseConstant

        pc = PiecewiseConstant()
        pc.add(0, 4, 2.0)
        pc.add(2, 6, 1.0)
        assert pc.window_integral(1, 5) == pytest.approx(2 * 3 + 1 * 3)
        assert pc.window_integral(1, 5, lambda v: v * v) == pytest.approx(
            4 * 1 + 9 * 2 + 1 * 1
        )

    def test_window_outside_support(self):
        from repro.scheduling import PiecewiseConstant

        pc = PiecewiseConstant()
        pc.add(0, 1, 3.0)
        assert pc.window_integral(5, 9) == 0.0

    def test_bad_window(self):
        from repro.errors import ValidationError
        from repro.scheduling import PiecewiseConstant

        pc = PiecewiseConstant()
        pc.add(0, 1, 1.0)
        with pytest.raises(ValidationError):
            pc.window_integral(2, 1)
