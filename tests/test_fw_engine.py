"""Pinning suite for the array-native Frank–Wolfe engine (DESIGN.md §9).

The array engine (`FrankWolfeSolver`: path registry + flat flow rows +
pairwise/away-step equilibration, one loop for every entry point —
DESIGN.md §19) keeps its dict-of-paths predecessor as
``FrankWolfeSolverReference``; this suite proves the pair interchangeable
across random jellyfish/fat-tree instances, cold and warm:

* ``solve``, a one-block ``solve_stacked`` and a cold
  :class:`RelaxationSession` solve are bit-identical;
* objectives agree within the shared gap tolerance and the engine's
  certified ``lower_bound`` never exceeds the reference's objective;
* path flows sum to each commodity's demand and rebuild ``link_loads``;
* infeasible instances raise the identical ``SolverError``, and a
  non-finite background is a ``ValidationError`` at every entry point;
* the :class:`RelaxationSession` interval sweep (commodity-set diffs)
  matches the reference's dict warm-start chain;
* the array path-flow view (``ArrayPathFlows``) agrees with the
  nested-dict representation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError, ValidationError
from repro.power import PowerModel
from repro.routing import (
    Commodity,
    FrankWolfeSolver,
    FrankWolfeSolverReference,
    RelaxationSession,
    envelope_cost,
)
from repro.topology import build_topology, fat_tree
from repro.topology.random_graphs import jellyfish

GAP = 1e-4


def make_topology(kind: str, seed: int):
    if kind == "fat_tree":
        return fat_tree(4)
    return jellyfish(10, 3, hosts_per_switch=2, seed=seed)


def make_commodities(topology, n: int, seed: int, id_offset: int = 0):
    rng = np.random.default_rng(seed)
    hosts = topology.hosts
    out = []
    for i in range(n):
        src_i, dst_i = rng.choice(len(hosts), size=2, replace=False)
        out.append(
            Commodity(
                id=id_offset + i,
                src=hosts[int(src_i)],
                dst=hosts[int(dst_i)],
                demand=float(rng.uniform(0.2, 3.0)),
            )
        )
    return out


def make_pair(topology, power):
    cost = envelope_cost(power)
    new = FrankWolfeSolver(
        topology, cost, max_iterations=500, gap_tolerance=GAP
    )
    ref = FrankWolfeSolverReference(
        topology, cost, max_iterations=500, gap_tolerance=GAP
    )
    return new, ref


def assert_objectives_agree(a, b):
    """Certified agreement: each solution's dual bound must bracket the
    other's objective, and the objectives agree within the *reported*
    gaps (a budget-capped run may legitimately stop above GAP)."""
    assert a.lower_bound <= b.objective + 1e-9
    assert b.lower_bound <= a.objective + 1e-9
    rel = 1.5 * (max(a.relative_gap, GAP) + max(b.relative_gap, GAP))
    assert a.objective == pytest.approx(b.objective, rel=rel)


def assert_solution_consistent(solution, commodities, topology):
    for commodity in commodities:
        flows = solution.path_flows[commodity.id]
        assert sum(flows.values()) == pytest.approx(commodity.demand)
        for path in flows:
            topology.validate_path(path, commodity.src, commodity.dst)
    rebuilt = np.zeros(topology.num_edges)
    for commodity in commodities:
        rebuilt += solution.edge_flows(topology, commodity.id)
    assert rebuilt == pytest.approx(solution.link_loads, abs=1e-8)
    assert solution.lower_bound <= solution.objective + 1e-12
    arrays = solution.arrays
    assert arrays is not None
    assert arrays.edge_loads(topology.num_edges) == pytest.approx(
        rebuilt, abs=1e-8
    )


@pytest.mark.parametrize(
    "kind,seed", [("fat_tree", 0), ("fat_tree", 1), ("jellyfish", 2),
                  ("jellyfish", 3)]
)
class TestColdAgainstReference:
    def test_cold_solve_matches(self, kind, seed):
        topology = make_topology(kind, seed)
        new, ref = make_pair(topology, PowerModel.quadratic())
        commodities = make_commodities(topology, 8, seed)
        a = new.solve(commodities)
        b = ref.solve(commodities)
        assert_objectives_agree(a, b)
        assert_solution_consistent(a, commodities, topology)

    def test_warm_solve_matches(self, kind, seed):
        topology = make_topology(kind, seed)
        new, ref = make_pair(topology, PowerModel.quadratic())
        session = RelaxationSession(new)
        base = make_commodities(topology, 8, seed)
        session.solve(base)
        cold_ref = ref.solve(base)
        # Perturb: drop one commodity, rescale another, add a fresh one.
        changed = base[1:]
        changed[0] = Commodity(
            id=changed[0].id, src=changed[0].src, dst=changed[0].dst,
            demand=changed[0].demand * 2.5,
        )
        changed.append(make_commodities(topology, 1, seed + 77,
                                        id_offset=1000)[0])
        a = session.solve(changed)
        b = ref.solve(changed, warm_start=cold_ref)
        assert_objectives_agree(a, b)
        assert_solution_consistent(a, changed, topology)


class TestPowerdownEnvelope:
    """sigma > 0 exercises the piecewise envelope (bisection line search)."""

    def test_envelope_cost_matches(self):
        topology = make_topology("jellyfish", 5)
        power = PowerModel(sigma=2.0, mu=1.0, alpha=2.0)
        new, ref = make_pair(topology, power)
        commodities = make_commodities(topology, 6, 5)
        a = new.solve(commodities)
        b = ref.solve(commodities)
        assert_objectives_agree(a, b)
        assert_solution_consistent(a, commodities, topology)

    def test_powerdown_sweep_conserves_demand(self):
        """Regression: on the envelope's zero-curvature segment the
        pairwise sweep once leaked commodity mass (clipped negative moves
        with no receiving row), draining flows to zero over the interval
        sweep.  Every interval solution must keep per-commodity sums."""
        topology = fat_tree(4)
        power = PowerModel(sigma=1.0, mu=1.0, alpha=2.0)
        cost = envelope_cost(power)
        solver = FrankWolfeSolver(
            topology, cost, max_iterations=40, gap_tolerance=3e-3
        )
        session = RelaxationSession(solver)
        commodities = make_commodities(topology, 20, 31)
        for _ in range(4):
            solution = session.solve(commodities)
            for commodity in commodities:
                assert sum(
                    solution.path_flows[commodity.id].values()
                ) == pytest.approx(commodity.demand)

    def test_quartic_cost_matches(self):
        topology = make_topology("fat_tree", 0)
        new, ref = make_pair(topology, PowerModel.quartic())
        commodities = make_commodities(topology, 6, 9)
        a = new.solve(commodities)
        b = ref.solve(commodities)
        assert_objectives_agree(a, b)
        assert_solution_consistent(a, commodities, topology)


class TestSessionSweep:
    """Session diffs (enter/leave/rescale) vs the dict warm-start chain."""

    def test_interval_sweep_matches_reference_chain(self):
        topology = make_topology("jellyfish", 11)
        new, ref = make_pair(topology, PowerModel.quadratic())
        session = RelaxationSession(new)
        base = make_commodities(topology, 8, 11)
        fresh = make_commodities(topology, 3, 12, id_offset=100)
        sweeps = [
            base,
            base[2:] + fresh[:1],                       # leave x2, enter x1
            [Commodity(c.id, c.src, c.dst, c.demand * 1.7)
             for c in base[2:]] + fresh[:1],            # rescale persisting
            fresh,                                      # near-total turnover
        ]
        previous = None
        for commodities in sweeps:
            a = session.solve(commodities)
            b = ref.solve(commodities, warm_start=previous)
            previous = b
            assert_objectives_agree(a, b)
            assert_solution_consistent(a, commodities, topology)

    def test_session_reset_forgets_state(self):
        topology = make_topology("fat_tree", 0)
        new, _ = make_pair(topology, PowerModel.quadratic())
        session = RelaxationSession(new)
        commodities = make_commodities(topology, 5, 3)
        first = session.solve(commodities)
        session.reset()
        cold = session.solve(commodities)
        assert cold.objective == pytest.approx(first.objective, rel=4 * GAP)

    def test_session_requires_array_solver(self):
        topology = make_topology("fat_tree", 0)
        _, ref = make_pair(topology, PowerModel.quadratic())
        with pytest.raises(ValidationError):
            RelaxationSession(ref)


class TestInfeasibility:
    def setup_method(self):
        self.topology = build_topology(
            [("a", "s1"), ("b", "s1"), ("c", "s2"), ("d", "s2")],
            hosts=["a", "b", "c", "d"],
        )

    def _message(self, solver, commodities):
        with pytest.raises(SolverError) as excinfo:
            solver.solve(commodities)
        return str(excinfo.value)

    def test_identical_infeasibility_errors(self):
        cost = envelope_cost(PowerModel.quadratic())
        new = FrankWolfeSolver(self.topology, cost)
        ref = FrankWolfeSolverReference(self.topology, cost)
        bad = [Commodity(0, "a", "c", 1.0)]
        assert self._message(new, bad) == self._message(ref, bad)

    def test_session_raises_mid_sweep_then_resets(self):
        cost = envelope_cost(PowerModel.quadratic())
        session = RelaxationSession(FrankWolfeSolver(self.topology, cost))
        session.solve([Commodity(0, "a", "b", 1.0)])
        with pytest.raises(SolverError, match="no path from 'a' to 'c'"):
            session.solve(
                [Commodity(0, "a", "b", 1.0), Commodity(1, "a", "c", 1.0)]
            )
        # A failed solve mutates the carried state mid-diff; the session
        # must reset so the next call restarts cold instead of
        # mis-attributing rows against a stale slot map.
        recovered = session.solve(
            [Commodity(0, "a", "b", 1.0), Commodity(2, "c", "d", 2.0)]
        )
        assert sum(recovered.path_flows[0].values()) == pytest.approx(1.0)
        assert sum(recovered.path_flows[2].values()) == pytest.approx(2.0)

    def test_validation_matches_reference(self):
        cost = envelope_cost(PowerModel.quadratic())
        new = FrankWolfeSolver(self.topology, cost)
        session = RelaxationSession(new)
        for solve in (new.solve, session.solve):
            with pytest.raises(ValidationError):
                solve([])
            with pytest.raises(ValidationError):
                solve([Commodity(0, "a", "b", 1.0),
                       Commodity(0, "a", "c", 1.0)])


class TestArrayConsumers:
    def test_rows_for_and_path_fractions(self):
        topology = make_topology("jellyfish", 4)
        new, _ = make_pair(topology, PowerModel.quadratic())
        commodities = make_commodities(topology, 4, 4)
        solution = new.solve(commodities)
        arrays = solution.arrays
        for commodity in commodities:
            rows = arrays.rows_for(commodity.id)
            assert float(arrays.amounts[rows].sum()) == pytest.approx(
                commodity.demand
            )
            fractions = solution.path_fractions(commodity.id)
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_lazy_path_flows_mapping_protocol(self):
        topology = make_topology("fat_tree", 0)
        new, _ = make_pair(topology, PowerModel.quadratic())
        commodities = make_commodities(topology, 3, 8)
        solution = new.solve(commodities)
        mapping = solution.path_flows
        assert len(mapping) == 3
        assert set(mapping) == {c.id for c in commodities}
        assert commodities[0].id in mapping
        assert mapping.get("missing") is None
        total = sum(
            sum(flows.values()) for flows in mapping.values()
        )
        assert total == pytest.approx(sum(c.demand for c in commodities))


class TestCurvature:
    @pytest.mark.parametrize(
        "power",
        [
            PowerModel.quadratic(),
            PowerModel.quartic(),
            PowerModel(sigma=2.0, mu=1.0, alpha=2.0),
            PowerModel(sigma=0.0, mu=2.0, alpha=3.0, capacity=5.0),
        ],
    )
    def test_matches_numeric_second_derivative(self, power):
        cost = envelope_cost(power)
        xs = np.array([0.7, 1.3, 2.9, 4.0, 6.5])
        h = 1e-5
        numeric = (cost.derivative(xs + h) - cost.derivative(xs - h)) / (2 * h)
        analytic = cost.curvature(xs)
        # Skip points within h of an envelope/penalty kink.
        kink = np.zeros_like(xs, dtype=bool)
        if power.sigma > 0:
            kink |= np.abs(xs - power.best_operating_rate) < 10 * h
        if np.isfinite(power.capacity):
            kink |= np.abs(xs - power.capacity) < 10 * h
        assert analytic[~kink] == pytest.approx(numeric[~kink], rel=1e-4)


class TestBackgroundLoads:
    """Fixed background loads: the commodities route *around* committed
    traffic while path flows still conserve each commodity's demand."""

    def test_zero_background_is_identity(self):
        topology = fat_tree(4)
        commodities = make_commodities(topology, 8, seed=5)
        cost = envelope_cost(PowerModel.quadratic())
        plain = FrankWolfeSolver(topology, cost, gap_tolerance=GAP).solve(
            commodities
        )
        zeros = FrankWolfeSolver(topology, cost, gap_tolerance=GAP).solve(
            commodities, background=np.zeros(topology.num_edges)
        )
        assert plain.objective == zeros.objective
        assert np.array_equal(plain.link_loads, zeros.link_loads)
        assert plain.path_flows[commodities[0].id] == zeros.path_flows[
            commodities[0].id
        ]

    def test_congested_edges_avoided(self):
        topology = fat_tree(4)
        commodities = make_commodities(topology, 8, seed=5)
        cost = envelope_cost(PowerModel.quadratic())
        plain = FrankWolfeSolver(topology, cost, gap_tolerance=GAP).solve(
            commodities
        )
        # Saturate the core edges of one commodity's heaviest path; its
        # equal-cost alternatives stay free, so the loaded solve must
        # steer most traffic off the hot edges.
        arrays = plain.arrays
        rows = arrays.rows_for(commodities[0].id)
        top = rows[int(np.argmax(arrays.amounts[rows]))]
        hosts = set(topology.hosts)
        path = arrays.registry.path(int(arrays.path_ids[top]))
        background = np.zeros(topology.num_edges)
        for u, v in zip(path, path[1:]):
            if u in hosts or v in hosts:
                continue  # forced first/last hops cannot move
            background[topology.edge_id(tuple(sorted((u, v))))] = 50.0
        assert background.any()
        loaded = FrankWolfeSolver(topology, cost, gap_tolerance=GAP).solve(
            commodities, background=background
        )
        assert_solution_consistent(loaded, commodities, topology)
        hot = background > 0
        assert loaded.link_loads[hot].sum() < plain.link_loads[hot].sum() * 0.5

    def test_background_not_carried_across_session_solves(self):
        topology = fat_tree(4)
        commodities = make_commodities(topology, 6, seed=9)
        cost = envelope_cost(PowerModel.quadratic())
        solver = FrankWolfeSolver(topology, cost, gap_tolerance=GAP)
        session = RelaxationSession(solver)
        background = np.full(topology.num_edges, 3.0)
        with_bg = session.solve(commodities, background=background)
        without = session.solve(commodities)
        # The second solve sees no background: its objective is evaluated
        # at the commodity loads alone, far below the shifted one.
        assert without.objective < with_bg.objective
        assert solver._background is None

    def test_background_validation(self):
        topology = fat_tree(4)
        commodities = make_commodities(topology, 4, seed=1)
        cost = envelope_cost(PowerModel.quadratic())
        solver = FrankWolfeSolver(topology, cost)
        with pytest.raises(ValidationError):
            solver.solve(commodities, background=np.zeros(3))
        with pytest.raises(ValidationError):
            solver.solve(
                commodities, background=np.full(topology.num_edges, -1.0)
            )

    @pytest.mark.parametrize("bad", ["nan-edge", "all-inf"])
    def test_non_finite_background_rejected(self, bad):
        """NaN and inf passed the sign check (``NaN < 0`` is false) and
        surfaced as "no path" routing failures; every entry point must
        reject them up front, naming the first bad edge."""
        from repro.core.relaxation import solve_relaxation
        from repro.flows.workloads import paper_workload

        topology = fat_tree(4)
        hosts = topology.hosts
        commodities = [
            Commodity(i, hosts[i], hosts[i + 8], 1.0) for i in range(4)
        ]
        if bad == "nan-edge":
            background = np.full(topology.num_edges, 0.5)
            background[3] = np.nan
            edge = 3
        else:
            background = np.full(topology.num_edges, np.inf)
            edge = 0
        solver = FrankWolfeSolver(
            topology, envelope_cost(PowerModel.quadratic())
        )
        flows = paper_workload(topology, 6, seed=0)
        calls = [
            lambda: solver.solve(commodities, background=background),
            lambda: solver.solve_stacked([commodities], [background]),
            lambda: RelaxationSession(solver).solve(
                commodities, background=background
            ),
            lambda: solve_relaxation(flows, solver, background=background),
        ]
        for call in calls:
            with pytest.raises(
                ValidationError, match=f"edge {edge} is not finite"
            ):
                call()

    def test_session_certified_under_shifting_backgrounds(self):
        """A warm session chased by a different background every solve
        (the per-interval profile sweep's access pattern) must stay
        certified and agree with cold solves of the same instances.

        This drives the pre-certification corrective sweep and the
        path-pool pricing: by the later solves the pool holds every
        detour the chain discovered, so injections fire, yet the dual
        certificate of the round loop keeps every answer exact.
        """
        topology = fat_tree(4)
        cost = envelope_cost(PowerModel.quadratic())
        solver = FrankWolfeSolver(
            topology, cost, max_iterations=500, gap_tolerance=GAP
        )
        session = RelaxationSession(solver)
        commodities = make_commodities(topology, 10, seed=3)
        rng = np.random.default_rng(7)
        for step in range(6):
            background = rng.uniform(0.0, 4.0, topology.num_edges)
            subset = commodities[: 6 + (step % 4)]
            warm = session.solve(subset, background=background)
            # Numerically-stalled runs may stop marginally above GAP
            # (same latitude assert_objectives_agree grants).
            assert warm.relative_gap <= 5 * GAP
            assert_solution_consistent(warm, subset, topology)
            cold = FrankWolfeSolver(
                topology, cost, max_iterations=500, gap_tolerance=GAP
            ).solve(subset, background=background)
            assert_objectives_agree(warm, cold)
        # The chain fed the pool: endpoint pairs with known paths.
        assert session._pool
        assert all(pids for pids in session._pool.values())

    def test_pool_pricing_injects_only_cheaper_paths(self):
        """Pool candidates enter as zero-flow atoms only when strictly
        cheaper than the commodity's best active atom at the current
        marginal weights — never for fresh (just-seeded) slots."""
        topology = fat_tree(4)
        cost = envelope_cost(PowerModel.quadratic())
        solver = FrankWolfeSolver(topology, cost, gap_tolerance=GAP)
        session = RelaxationSession(solver)
        commodities = make_commodities(topology, 8, seed=11)
        session.solve(commodities)
        # Load the first commodity's committed edges so its pooled
        # alternatives become attractive on the next shifted solve.
        state = session._state
        assert state is not None
        weights = np.ones(topology.num_edges)
        prep = solver._prep(commodities)
        n_before = state.n
        session._price_pool(state, prep, fresh=[], weights=weights)
        # Whatever was injected carries zero flow and a strictly
        # cheaper path cost than the owner's previous best atom.
        new_rows = range(n_before, state.n)
        costs = state.path_costs(weights)
        for row in new_rows:
            assert state.flow[row] == 0.0
            owner = int(state.owner[row])
            old_rows = [
                r
                for r in range(n_before)
                if int(state.owner[r]) == owner
            ]
            assert costs[row] < min(costs[r] for r in old_rows)


class TestOneLoop:
    """``solve``, a one-block ``solve_stacked`` and a cold
    ``RelaxationSession`` solve run one Frank–Wolfe loop from one
    all-or-nothing seed, so their results agree bit for bit."""

    @pytest.mark.parametrize(
        "power",
        [
            PowerModel.quadratic(),
            PowerModel.quartic(),
            PowerModel(sigma=2.0, mu=1.0, alpha=2.0),
            PowerModel(sigma=0.0, mu=2.0, alpha=3.0, capacity=5.0),
        ],
        ids=["quadratic", "quartic", "envelope", "capacity"],
    )
    def test_entry_points_bit_identical(self, power):
        topology = fat_tree(4)
        cost = envelope_cost(power)
        commodities = make_commodities(topology, 10, seed=13)
        background = np.random.default_rng(17).uniform(
            0.0, 2.0, topology.num_edges
        )

        def fresh():
            return FrankWolfeSolver(
                topology, cost, max_iterations=200, gap_tolerance=GAP
            )

        first, *others = [
            fresh().solve(commodities, background=background),
            fresh().solve_stacked([commodities], [background])[0],
            RelaxationSession(fresh()).solve(
                commodities, background=background
            ),
        ]
        for other in others:
            assert other.objective == first.objective
            assert other.lower_bound == first.lower_bound
            assert other.iterations == first.iterations
            assert np.array_equal(other.link_loads, first.link_loads)
            assert np.array_equal(other.arrays.path_ids, first.arrays.path_ids)
            assert np.array_equal(other.arrays.amounts, first.arrays.amounts)
            assert np.array_equal(
                other.arrays.owner_slots, first.arrays.owner_slots
            )
