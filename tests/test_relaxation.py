"""Tests for the multi-step F-MCF relaxation (Algorithm 2 steps 1-5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_flows_on
from repro.core.relaxation import default_cost, solve_relaxation
from repro.errors import ValidationError
from repro.flows import TimeGrid
from repro.power import PowerModel
from repro.routing import Commodity, FrankWolfeSolver, RelaxationSession
from repro.routing import mcflow
from repro.routing.background import BackgroundProfile
from repro.service import ReplayService
from repro.topology import fat_tree
from repro.topology.random_graphs import jellyfish
from repro.traces import RelaxationRoundingPolicy


def make_relaxation(topology, flows, power=None, **solver_kwargs):
    power = power or PowerModel.quadratic()
    defaults = dict(max_iterations=200, gap_tolerance=1e-5)
    defaults.update(solver_kwargs)
    solver = FrankWolfeSolver(topology, default_cost(power), **defaults)
    return solve_relaxation(flows, solver)


class TestStructure:
    def test_one_solution_per_nonempty_interval(self, ft4):
        flows = random_flows_on(ft4, 8, seed=1)
        grid = TimeGrid(flows)
        relaxation = make_relaxation(ft4, flows)
        nonempty = sum(
            1 for iv in grid.intervals if grid.active_flows(iv)
        )
        assert len(relaxation.intervals) == nonempty

    def test_active_ids_match_grid(self, ft4):
        flows = random_flows_on(ft4, 8, seed=2)
        relaxation = make_relaxation(ft4, flows)
        grid = relaxation.grid
        for iv_sol in relaxation.intervals:
            expected = {f.id for f in grid.active_flows(iv_sol.interval)}
            assert set(iv_sol.active_flow_ids) == expected
            assert set(iv_sol.solution.path_flows.keys()) == expected

    def test_objective_is_sum_of_contributions(self, ft4):
        flows = random_flows_on(ft4, 6, seed=3)
        relaxation = make_relaxation(ft4, flows)
        total = sum(iv.cost_contribution for iv in relaxation.intervals)
        assert relaxation.objective == pytest.approx(total)

    def test_lower_bound_never_exceeds_objective(self, ft4):
        flows = random_flows_on(ft4, 6, seed=4)
        relaxation = make_relaxation(ft4, flows)
        assert relaxation.lower_bound <= relaxation.objective + 1e-12
        # Frank-Wolfe converges sublinearly, so intervals that hit the
        # iteration cap can retain a small certified gap; it stays below a
        # percent on these instances.
        assert relaxation.lower_bound == pytest.approx(
            relaxation.objective, rel=1e-2
        )

    def test_fractions_cover_each_flow_span(self, ft4):
        flows = random_flows_on(ft4, 8, seed=5)
        relaxation = make_relaxation(ft4, flows)
        for flow in flows:
            pieces = relaxation.fractions_for_flow(flow.id)
            covered = sum(iv.length for iv, _f in pieces)
            assert covered == pytest.approx(flow.span_length, rel=1e-9)
            for _iv, fractions in pieces:
                assert sum(fractions.values()) == pytest.approx(1.0)


class TestLowerBoundQuality:
    def test_single_flow_lb_is_shortest_path_density_cost(self, ft4, quadratic):
        """One flow alone: the relaxation spreads over equal-cost paths,
        which for alpha=2 and 4 disjoint 6-hop paths beats single-path by
        4x on the shared-capable hops; the LB must be <= the single-path
        density cost."""
        flows = random_flows_on(ft4, 1, seed=6)
        flow = next(iter(flows))
        relaxation = make_relaxation(ft4, flows)
        hops = len(ft4.shortest_path(flow.src, flow.dst)) - 1
        single_path_cost = (
            hops * quadratic.dynamic_power(flow.density) * flow.span_length
        )
        assert relaxation.lower_bound <= single_path_cost * (1 + 1e-6)

    def test_lb_scales_superlinearly_with_demand(self, small_dumbbell):
        """Doubling every size on a bottleneck raises the LB by ~4x
        (alpha = 2)."""
        from repro.flows import Flow, FlowSet

        def mk(scale):
            return FlowSet(
                [
                    Flow(id=1, src="l0", dst="r0", size=2.0 * scale,
                         release=0, deadline=2),
                    Flow(id=2, src="l1", dst="r1", size=3.0 * scale,
                         release=0, deadline=2),
                ]
            )

        lb1 = make_relaxation(small_dumbbell, mk(1)).lower_bound
        lb2 = make_relaxation(small_dumbbell, mk(2)).lower_bound
        assert lb2 == pytest.approx(4 * lb1, rel=1e-3)


# ----------------------------------------------------------------------
# Stacked solve vs the sequential per-interval session
# ----------------------------------------------------------------------
ORACLE_GAP = 1e-3
ORACLE_ITERATIONS = 400

_TOPOLOGIES = {
    "ft4": fat_tree(4),
    "jellyfish": jellyfish(10, 3, hosts_per_switch=2, seed=1),
}
_POWERS = {
    "quadratic": PowerModel.quadratic(),
    "quartic": PowerModel.quartic(),
}


def make_background(kind, topology, flows, seed):
    """None, one flat vector, or a piecewise profile over the horizon."""
    if kind == "none":
        return None
    rng = np.random.default_rng(seed)
    if kind == "flat":
        return rng.uniform(0.0, 3.0, topology.num_edges)
    lo = min(f.release for f in flows)
    hi = max(f.deadline for f in flows)
    times = np.linspace(lo, hi, 5)
    loads = rng.uniform(0.0, 3.0, (4, topology.num_edges))
    return BackgroundProfile(topology.num_edges, lo, hi, times, loads)


def sequential_oracle(flows, topology, power, background):
    """The retired interval sweep: one warm RelaxationSession solve per
    elementary interval, left to right."""
    solver = FrankWolfeSolver(
        topology, default_cost(power),
        max_iterations=ORACLE_ITERATIONS, gap_tolerance=ORACLE_GAP,
    )
    session = RelaxationSession(solver)
    grid = TimeGrid(flows)
    out = []
    for interval in grid.intervals:
        active = grid.active_flows(interval)
        if not active:
            continue
        bg = (
            background.mean_over(interval.start, interval.end)
            if isinstance(background, BackgroundProfile)
            else background
        )
        commodities = [
            Commodity(f.id, f.src, f.dst, f.density) for f in active
        ]
        out.append(session.solve(commodities, background=bg))
    return out


def stacked(flows, topology, power, background, solver=None):
    if solver is None:
        solver = FrankWolfeSolver(
            topology, default_cost(power),
            max_iterations=ORACLE_ITERATIONS, gap_tolerance=ORACLE_GAP,
        )
    return solve_relaxation(flows, solver, background=background)


def assert_stacked_certified(result, oracle, flows):
    assert len(result.intervals) == len(oracle)
    for iv, seq in zip(result.intervals, oracle):
        # Both bounds are certified, so each sits below the other's
        # primal value.
        assert iv.solution.lower_bound <= seq.objective * (1 + 1e-9) + 1e-12
        assert seq.lower_bound <= iv.solution.objective * (1 + 1e-9) + 1e-12
        assert iv.solution.lower_bound <= iv.solution.objective
    assert result.lower_bound <= result.objective
    capped = max(iv.solution.iterations for iv in result.intervals)
    if capped < ORACLE_ITERATIONS:
        gap = (result.objective - result.lower_bound) / result.objective
        assert gap <= ORACLE_GAP * (1 + 1e-9)
    for flow in flows:
        pieces = result.fractions_for_flow(flow.id)
        covered = sum(interval.length for interval, _ in pieces)
        assert covered == pytest.approx(flow.span_length, rel=1e-9)
        for _, fractions in pieces:
            assert sum(fractions.values()) == pytest.approx(1.0)


def assert_identical(a, b):
    assert a.objective == b.objective
    assert a.lower_bound == b.lower_bound
    for x, y in zip(a.intervals, b.intervals):
        assert x.solution.iterations == y.solution.iterations
        assert np.array_equal(x.solution.link_loads, y.solution.link_loads)
        assert dict(x.solution.path_flows) == dict(y.solution.path_flows)


class TestStackedAgainstSequential:
    @settings(max_examples=30, deadline=None)
    @given(
        topology=st.sampled_from(sorted(_TOPOLOGIES)),
        power=st.sampled_from(sorted(_POWERS)),
        background=st.sampled_from(["none", "flat", "profile"]),
        n=st.integers(1, 7),
        seed=st.integers(0, 10_000),
    )
    def test_certified_against_oracle(
        self, topology, power, background, n, seed
    ):
        topo = _TOPOLOGIES[topology]
        pm = _POWERS[power]
        flows = random_flows_on(topo, n, seed=seed)
        bg = make_background(background, topo, flows, seed)
        solver = FrankWolfeSolver(
            topo, default_cost(pm),
            max_iterations=ORACLE_ITERATIONS, gap_tolerance=ORACLE_GAP,
        )
        result = stacked(flows, topo, pm, bg, solver)
        assert_stacked_certified(
            result, sequential_oracle(flows, topo, pm, bg), flows
        )
        # Repeated solves — on the same solver or a fresh one — are bit
        # for bit identical (replays compare total energy exactly).
        assert_identical(result, stacked(flows, topo, pm, bg, solver))
        assert_identical(result, stacked(flows, topo, pm, bg))

    def test_many_intervals_cross_chunk_boundaries(self, monkeypatch):
        """Dozens of intervals under a tiny shortest-path chunk budget:
        every round splits into several block-diagonal calls, and the
        result must match the single-call layout exactly."""
        topo = _TOPOLOGIES["ft4"]
        power = _POWERS["quadratic"]
        flows = random_flows_on(topo, 24, seed=7, horizon=(0.0, 60.0))
        bg = make_background("profile", topo, flows, seed=7)
        calls: list[int] = []
        real = mcflow.dijkstra

        def spy(graph, *args, **kwargs):
            calls.append(graph.shape[0])
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(mcflow, "dijkstra", spy)
        whole = stacked(flows, topo, power, bg)
        assert len(whole.intervals) > 30
        whole_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(mcflow, "_DIJKSTRA_CHUNK_ENTRIES", 2_000)
        chunked = stacked(flows, topo, power, bg)
        nc = FrankWolfeSolver(topo, default_cost(power))._num_core
        assert len(calls) > 2 * whole_calls  # rounds split into chunks
        assert max(calls) > nc  # and chunks still stack several blocks
        assert_identical(whole, chunked)
        assert_stacked_certified(
            chunked, sequential_oracle(flows, topo, power, bg), flows
        )

    def test_block_weights_drive_the_certificate(self):
        """solve_stacked certifies the weighted total, and each block's
        own bound stays valid whatever the weights."""
        topo = _TOPOLOGIES["ft4"]
        solver = FrankWolfeSolver(
            topo, default_cost(_POWERS["quadratic"]), gap_tolerance=1e-3
        )
        hosts = topo.hosts
        blocks = [
            [Commodity(i, hosts[i], hosts[-1 - i], 1.0 + i) for i in range(k)]
            for k in (1, 3, 5)
        ]
        solutions = solver.solve_stacked(blocks, block_weights=[1, 2, 3])
        weights = np.array([1.0, 2.0, 3.0])
        f = np.array([s.objective for s in solutions])
        lb = np.array([s.lower_bound for s in solutions])
        assert weights @ (f - lb) <= 1e-3 * (weights @ f) * (1 + 1e-9)
        for block, solution in zip(blocks, solutions):
            alone = FrankWolfeSolver(
                topo, default_cost(_POWERS["quadratic"]), gap_tolerance=1e-6,
                max_iterations=500,
            ).solve(block)
            assert solution.lower_bound <= alone.objective * (1 + 1e-9)
            assert alone.lower_bound <= solution.objective * (1 + 1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backgrounds": [None]},
            {"block_weights": [1.0, -1.0, 1.0]},
            {"block_weights": [1.0, float("nan"), 1.0]},
        ],
    )
    def test_rejects_misshapen_inputs(self, kwargs):
        topo = _TOPOLOGIES["ft4"]
        solver = FrankWolfeSolver(topo, default_cost(_POWERS["quadratic"]))
        hosts = topo.hosts
        blocks = [[Commodity(0, hosts[0], hosts[1], 1.0)]] * 3
        with pytest.raises(ValidationError):
            solver.solve_stacked(blocks, **kwargs)


# ----------------------------------------------------------------------
# Frank-Wolfe settings fail at construction
# ----------------------------------------------------------------------
_FT4 = fat_tree(4)
_QUADRATIC = PowerModel.quadratic()

_BUILDERS = {
    "solver": lambda it, gap: FrankWolfeSolver(
        _FT4, default_cost(_QUADRATIC), max_iterations=it, gap_tolerance=gap
    ),
    "policy": lambda it, gap: RelaxationRoundingPolicy(
        fw_max_iterations=it, fw_gap_tolerance=gap
    ),
    "service": lambda it, gap: ReplayService(
        _FT4, _QUADRATIC, 1.0, num_shards=2, mode="relax",
        fw_max_iterations=it, fw_gap_tolerance=gap,
    ),
}


@pytest.mark.parametrize("builder", sorted(_BUILDERS))
@pytest.mark.parametrize(
    "iterations, gap",
    [(0, 1e-3), (40, 0.0), (40, -1e-3), (40, float("nan")),
     (40, float("inf")), (float("nan"), 1e-3)],
)
def test_bad_fw_settings_fail_at_construction(builder, iterations, gap):
    with pytest.raises(ValidationError):
        _BUILDERS[builder](iterations, gap)
