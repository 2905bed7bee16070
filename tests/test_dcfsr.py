"""Tests for Random-Schedule (Algorithm 2) — the DCFSR approximation."""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import random_flows_on
from repro.core import solve_dcfsr, solve_dcfsr_exact
from repro.errors import ValidationError
from repro.flows import Flow, FlowSet
from repro.power import PowerModel
from repro.topology import fat_tree, parallel_paths


class TestTheorem4Feasibility:
    """Theorem 4: every deadline is met by the rounded schedule."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_all_deadlines_met(self, ft4, quadratic, seed):
        flows = random_flows_on(ft4, 10, seed=seed)
        result = solve_dcfsr(flows, ft4, quadratic, seed=seed)
        report = result.schedule.verify(flows, ft4, quadratic)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_both_paper_alphas(self, ft4, alpha):
        power = PowerModel(alpha=alpha)
        flows = random_flows_on(ft4, 8, seed=9)
        result = solve_dcfsr(flows, ft4, power, seed=9)
        report = result.schedule.verify(flows, ft4, power)
        assert report.ok

    def test_each_flow_single_path_at_density(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=2)
        result = solve_dcfsr(flows, ft4, quadratic, seed=2)
        for fs in result.schedule:
            assert len(fs.segments) == 1
            seg = fs.segments[0]
            assert seg.start == fs.flow.release
            assert seg.end == fs.flow.deadline
            assert seg.rate == pytest.approx(fs.flow.density)


class TestLowerBound:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_energy_at_least_lower_bound(self, ft4, quadratic, seed):
        flows = random_flows_on(ft4, 10, seed=seed)
        result = solve_dcfsr(flows, ft4, quadratic, seed=seed)
        assert result.energy.total >= result.lower_bound * (1 - 1e-9)
        assert result.approximation_ratio >= 1.0 - 1e-9

    def test_lower_bound_bounds_exact_optimum(self, quadratic):
        """LB <= OPT verified against exhaustive search on a tiny instance."""
        topo = parallel_paths(3)
        flows = FlowSet(
            [
                Flow(id=1, src="src", dst="dst", size=3.0, release=0, deadline=1),
                Flow(id=2, src="src", dst="dst", size=2.0, release=0, deadline=1),
            ]
        )
        rs = solve_dcfsr(flows, topo, quadratic, seed=0)
        exact = solve_dcfsr_exact(flows, topo, quadratic)
        assert rs.lower_bound <= exact.energy.total * (1 + 1e-6)
        assert rs.energy.total >= exact.energy.total * (1 - 1e-9)

    def test_rs_close_to_exact_on_tiny_instance(self, quadratic):
        """On a 2-flow parallel instance the relaxation is near-integral, so
        RS should land within a small factor of the true optimum."""
        topo = parallel_paths(3)
        flows = FlowSet(
            [
                Flow(id=1, src="src", dst="dst", size=3.0, release=0, deadline=1),
                Flow(id=2, src="src", dst="dst", size=2.0, release=0, deadline=1),
            ]
        )
        rs = solve_dcfsr(flows, topo, quadratic, seed=0)
        exact = solve_dcfsr_exact(flows, topo, quadratic)
        assert rs.energy.total <= exact.energy.total * 2.5


class TestRounding:
    def test_deterministic_given_seed(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=4)
        a = solve_dcfsr(flows, ft4, quadratic, seed=11)
        b = solve_dcfsr(flows, ft4, quadratic, seed=11)
        assert a.schedule.paths() == b.schedule.paths()
        assert a.energy.total == pytest.approx(b.energy.total)

    def test_weights_are_distributions(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=5)
        result = solve_dcfsr(flows, ft4, quadratic, seed=5)
        for fid, weights in result.rounding_weights.items():
            assert sum(weights.values()) == pytest.approx(1.0)
            chosen = result.schedule[fid].path
            assert chosen in weights

    def test_capacity_retries(self):
        """With a punishingly tight capacity the first draws can violate;
        the solver must retry and report honestly."""
        topo = parallel_paths(4)
        flows = FlowSet(
            Flow(id=i, src="src", dst="dst", size=1.0, release=0, deadline=1)
            for i in range(4)
        )
        power = PowerModel.quadratic(capacity=1.05)
        result = solve_dcfsr(flows, topo, power, seed=3, max_attempts=200)
        if result.capacity_feasible:
            assert result.schedule.max_link_rate() <= 1.05 * (1 + 1e-6)
        else:
            assert result.attempts == 200

    def test_infeasible_capacity_flagged(self):
        """A single flow whose density exceeds C can never be feasible."""
        topo = parallel_paths(2)
        flows = FlowSet(
            [Flow(id=1, src="src", dst="dst", size=5.0, release=0, deadline=1)]
        )
        power = PowerModel.quadratic(capacity=2.0)
        result = solve_dcfsr(flows, topo, power, seed=0, max_attempts=3)
        assert not result.capacity_feasible
        assert result.attempts == 3

    def test_max_attempts_validated(self, ft4, quadratic):
        flows = random_flows_on(ft4, 4, seed=0)
        with pytest.raises(ValidationError):
            solve_dcfsr(flows, ft4, quadratic, max_attempts=0)

    def test_unknown_rounding_mode_rejected(self, ft4, quadratic):
        flows = random_flows_on(ft4, 4, seed=0)
        with pytest.raises(ValidationError):
            solve_dcfsr(flows, ft4, quadratic, rounding="annealed")


class TestDeterministicRounding:
    def test_single_attempt_and_feasible(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=10)
        result = solve_dcfsr(
            flows, ft4, quadratic, seed=10, rounding="deterministic"
        )
        assert result.attempts == 1
        assert result.schedule.verify(flows, ft4, quadratic).ok

    def test_picks_modal_path(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=11)
        result = solve_dcfsr(
            flows, ft4, quadratic, seed=11, rounding="deterministic"
        )
        for fid, weights in result.rounding_weights.items():
            chosen = result.schedule[fid].path
            assert weights[chosen] == pytest.approx(max(weights.values()))

    def test_reproducible_without_seed_influence(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=12)
        a = solve_dcfsr(flows, ft4, quadratic, seed=1, rounding="deterministic")
        b = solve_dcfsr(flows, ft4, quadratic, seed=99, rounding="deterministic")
        assert a.schedule.paths() == b.schedule.paths()

    def test_close_to_random_mode(self, ft4, quadratic):
        flows = random_flows_on(ft4, 10, seed=13)
        det = solve_dcfsr(flows, ft4, quadratic, rounding="deterministic")
        rnd = solve_dcfsr(flows, ft4, quadratic, seed=13)
        assert det.energy.total <= 2 * rnd.energy.total
        assert rnd.energy.total <= 2 * det.energy.total


class TestArrayRoundingPinned:
    """The array rounding loop pinned to the retained dict reference."""

    @pytest.fixture(scope="class")
    def relaxed(self):
        from repro.core.relaxation import default_cost, solve_relaxation
        from repro.flows import paper_workload
        from repro.flows.intervals import TimeGrid
        from repro.routing import FrankWolfeSolver

        topo = fat_tree(4)
        power = PowerModel.quadratic()
        flows = paper_workload(topo, 40, seed=5)
        solver = FrankWolfeSolver(topo, default_cost(power))
        return flows, solve_relaxation(flows, solver, TimeGrid(flows))

    def test_random_draws_identical(self, relaxed):
        import numpy as np

        from tests.oracles.rounding import round_schedule_reference
        from repro.core import round_schedule

        flows, relaxation = relaxed
        for seed in (0, 7, 123):
            array_schedule, array_weights = round_schedule(
                flows, relaxation, np.random.default_rng(seed)
            )
            ref_schedule, ref_weights = round_schedule_reference(
                flows, relaxation, np.random.default_rng(seed)
            )
            assert array_schedule.paths() == ref_schedule.paths()
            for fid, reference in ref_weights.items():
                for path, value in reference.items():
                    assert array_weights[fid][path] == pytest.approx(
                        value, abs=1e-12
                    )


class TestQualitativeShape:
    def test_rs_beats_sp_mcf_on_paper_workload(self, quadratic):
        """The headline Figure-2 relation at a modest scale."""
        from repro.core import sp_mcf
        from repro.flows import paper_workload

        topo = fat_tree(4)
        flows = paper_workload(topo, 40, seed=1)
        rs = solve_dcfsr(flows, topo, quadratic, seed=1)
        sp = sp_mcf(flows, topo, quadratic)
        assert rs.energy.total < sp.energy.total

    def test_energy_accounting_consistent(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=6)
        result = solve_dcfsr(flows, ft4, quadratic, seed=6)
        recomputed = result.schedule.energy(
            quadratic, horizon=flows.horizon
        )
        assert result.energy.total == pytest.approx(recomputed.total)
