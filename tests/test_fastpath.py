"""Property suite for the array-native routing core (DESIGN.md §7).

Two load-bearing pins:

* routing equivalence — :class:`FastRouter` (the bidirectional,
  cache-seeded router every marginal-cost consumer uses) must return
  paths of *equal cost* to ``marginal_route_reference`` (the
  :func:`networkx.dijkstra_path` oracle in ``tests/oracles/paths.py``)
  on random jellyfish/fat-tree topologies under random positive
  marginals;
* ledger exactness — :class:`LoadLedger` must reproduce, bit-for-bit up
  to float tolerance, the from-scratch load rebuild via per-edge
  :class:`PiecewiseConstant` profiles that :mod:`repro.core.online` used
  before the ledger existed; seeded with an accountant's live pieces,
  it must equal both a per-piece overlap sum and the composition it
  replaced in the replay policies (its own loads plus a
  :class:`~repro.routing.background.BackgroundProfile` mean).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.paths import marginal_route_reference
from repro.errors import TopologyError, ValidationError
from repro.flows import Flow
from repro.power import PowerModel
from repro.routing.fastpath import FastRouter, LoadLedger
from repro.scheduling import FlowSchedule, Segment
from repro.scheduling.timeline import PiecewiseConstant
from repro.topology import build_topology, fat_tree
from repro.topology.base import path_edges
from repro.topology.random_graphs import jellyfish
from repro.traces.replay import WindowAccountant

# Topologies are module-level so Hypothesis examples only pay for them once.
TOPOLOGIES = [
    fat_tree(4),
    fat_tree(6),
    jellyfish(8, 3, hosts_per_switch=2, seed=1),
    jellyfish(12, 4, hosts_per_switch=1, seed=2),
]


def path_cost(topology, path, marginal) -> float:
    return float(
        sum(marginal[topology.edge_id(e)] for e in path_edges(path))
    )


class TestFastRouterEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        topo_index=st.integers(0, len(TOPOLOGIES) - 1),
        seed=st.integers(0, 2**31 - 1),
        steps=st.integers(1, 8),
    )
    def test_equal_cost_under_marginal_churn(self, topo_index, seed, steps):
        """Random weight updates (growth and shrinkage, full and edge-wise)
        interleaved with repeated-pair queries: every route the router
        returns — cached, re-proven, or fresh — must cost the same as the
        networkx reference."""
        topology = TOPOLOGIES[topo_index]
        rng = np.random.default_rng(seed)
        hosts = topology.hosts
        router = FastRouter(topology)
        marginal = rng.uniform(0.1, 5.0, topology.num_edges)
        router.set_marginal(marginal.copy())
        pairs = [
            tuple(hosts[int(i)] for i in rng.choice(len(hosts), 2, False))
            for _ in range(3)
        ]
        for _ in range(steps):
            for src, dst in pairs:
                path, eids = router.route(src, dst)
                topology.validate_path(path, src, dst)
                assert np.array_equal(
                    eids,
                    [topology.edge_id(e) for e in path_edges(path)],
                )
                reference = marginal_route_reference(
                    topology, src, dst, marginal
                )
                assert path_cost(topology, path, marginal) == pytest.approx(
                    path_cost(topology, reference, marginal), rel=1e-9
                )
            if rng.random() < 0.5:
                marginal = np.maximum(
                    marginal * rng.uniform(0.5, 2.0, len(marginal)), 1e-9
                )
                router.set_marginal(marginal.copy())
            else:
                touched = rng.choice(
                    topology.num_edges,
                    size=min(4, topology.num_edges),
                    replace=False,
                )
                marginal[touched] = np.maximum(
                    marginal[touched] * rng.uniform(0.5, 2.0, len(touched)),
                    1e-9,
                )
                router.bump_edges(touched, marginal[touched])

    def test_cache_hit_when_weights_untouched(self, ft4):
        router = FastRouter(ft4)
        router.set_marginal(np.full(ft4.num_edges, 1.0))
        h = ft4.hosts
        path1, eids1 = router.route(h[0], h[-1])
        path2, _ = router.route(h[0], h[-1])
        assert path1 is path2
        assert router.hits == 1 and router.misses == 1

    def test_cache_survives_offpath_increase(self, ft4):
        router = FastRouter(ft4)
        marginal = np.full(ft4.num_edges, 1.0)
        router.set_marginal(marginal.copy())
        h = ft4.hosts
        path, eids = router.route(h[0], h[-1])
        off = [e for e in range(ft4.num_edges) if e not in set(eids.tolist())]
        router.bump_edges(off[:3], [5.0, 5.0, 5.0])
        path2, _ = router.route(h[0], h[-1])
        assert path2 is path
        assert router.hits == 1

    def test_onpath_increase_reroutes_equal_cost(self, ft4, quadratic):
        router = FastRouter(ft4)
        marginal = np.full(ft4.num_edges, 1.0)
        router.set_marginal(marginal.copy())
        h = ft4.hosts
        path, eids = router.route(h[0], h[-1])
        marginal[eids[len(eids) // 2]] = 50.0  # congest a middle link
        router.bump_edges(
            [int(eids[len(eids) // 2])], [50.0]
        )
        path2, _ = router.route(h[0], h[-1])
        assert path2 != path  # the fat-tree always has an equal-length detour
        reference = marginal_route_reference(ft4, h[0], h[-1], marginal)
        assert path_cost(ft4, path2, marginal) == pytest.approx(
            path_cost(ft4, reference, marginal), rel=1e-12
        )

    def test_decrease_reproves_or_reroutes(self, ft4):
        router = FastRouter(ft4)
        marginal = np.full(ft4.num_edges, 2.0)
        router.set_marginal(marginal.copy())
        h = ft4.hosts
        path, eids = router.route(h[0], h[-1])
        # A global decrease invalidates; the bound-seeded search re-proves
        # the candidate when it is still cheapest.
        router.set_marginal(np.full(ft4.num_edges, 1.0))
        path2, _ = router.route(h[0], h[-1])
        assert path_cost(ft4, path2, np.full(ft4.num_edges, 1.0)) == (
            pytest.approx(len(path2) - 1)
        )
        assert router.proofs + router.misses >= 2

    def test_route_before_set_marginal_rejected(self, ft4):
        router = FastRouter(ft4)
        with pytest.raises(ValidationError):
            router.route(ft4.hosts[0], ft4.hosts[-1])

    def test_nonpositive_marginal_rejected(self, ft4):
        router = FastRouter(ft4)
        with pytest.raises(ValidationError):
            router.set_marginal(np.zeros(ft4.num_edges))
        router.set_marginal(np.ones(ft4.num_edges))
        with pytest.raises(ValidationError):
            router.bump_edges([0], [0.0])

    def test_disconnected_raises(self):
        topo = build_topology(
            [("a", "b"), ("c", "d")], hosts=["a", "b", "c", "d"]
        )
        router = FastRouter(topo)
        router.set_marginal(np.ones(topo.num_edges))
        with pytest.raises(TopologyError, match="no path"):
            router.route("a", "c")

    def test_equal_endpoints_rejected(self, ft4):
        router = FastRouter(ft4)
        router.set_marginal(np.ones(ft4.num_edges))
        with pytest.raises(TopologyError):
            router.route(ft4.hosts[0], ft4.hosts[0])

    def test_unknown_endpoint_rejected(self, ft4):
        router = FastRouter(ft4)
        router.set_marginal(np.ones(ft4.num_edges))
        with pytest.raises(TopologyError):
            router.route(ft4.hosts[0], "nope")

    def test_wrong_marginal_shape_rejected(self, ft4):
        router = FastRouter(ft4)
        with pytest.raises(ValidationError):
            router.set_marginal(np.ones(3))

    def test_routes_through_degree2_hosts(self, line3):
        # Hosts with degree > 1 are legitimate transit nodes (the leaf
        # skip must only prune degree-1 nodes).
        router = FastRouter(line3)
        router.set_marginal(np.ones(line3.num_edges))
        path, _ = router.route("n0", "n2")
        assert path == ("n0", "n1", "n2")


def ledger_reference(topology, commits, start, end):
    """From-scratch rebuild: per-edge PiecewiseConstant window integral —
    exactly what repro.core.online did before the LoadLedger existed."""
    profiles = {eid: PiecewiseConstant() for eid in range(topology.num_edges)}
    for eids, c_start, c_end, rate in commits:
        for eid in eids:
            profiles[eid].add(c_start, c_end, rate)
    span = end - start
    loads = np.zeros(topology.num_edges)
    for eid, profile in profiles.items():
        window = profile.window_integral(start, end)
        if window != 0.0:
            loads[eid] = window / span
    return loads


class TestLoadLedger:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_flows=st.integers(1, 60),
        merge_at=st.sampled_from([1, 2, 8, 64]),
    )
    def test_matches_from_scratch_rebuild(self, seed, num_flows, merge_at):
        topology = TOPOLOGIES[0]
        rng = np.random.default_rng(seed)
        ledger = LoadLedger(topology)
        ledger._MERGE_AT = merge_at  # exercise pending/merged interplay
        commits = []
        clock = 0.0
        for _ in range(num_flows):
            clock += float(rng.exponential(0.5))
            span = float(rng.uniform(0.2, 6.0))
            loads = ledger.loads(clock, clock + span)
            expected = ledger_reference(
                topology, commits, clock, clock + span
            )
            np.testing.assert_allclose(loads, expected, atol=1e-9)
            k = int(rng.integers(1, 5))
            eids = rng.choice(topology.num_edges, size=k, replace=False)
            rate = float(rng.uniform(0.1, 3.0))
            ledger.commit(eids, clock, clock + span, rate)
            commits.append((eids.tolist(), clock, clock + span, rate))

    def test_release_order_enforced(self, ft4):
        ledger = LoadLedger(ft4)
        ledger.loads(5.0, 6.0)
        with pytest.raises(ValidationError):
            ledger.loads(4.0, 6.0)
        with pytest.raises(ValidationError):
            ledger.commit([0], 4.0, 6.0, 1.0)

    def test_query_before_commit_start_rejected(self, ft4):
        """A query opening before an accepted commit's start would break
        the covers-the-left-edge invariant and silently return wrong
        loads; the clock must advance on commit so it raises instead."""
        ledger = LoadLedger(ft4)
        ledger.loads(0.0, 10.0)
        ledger.commit([0], 5.0, 8.0, 1.0)
        with pytest.raises(ValidationError):
            ledger.loads(1.0, 10.0)

    def test_degenerate_windows_rejected(self, ft4):
        ledger = LoadLedger(ft4)
        with pytest.raises(ValidationError):
            ledger.loads(1.0, 1.0)
        with pytest.raises(ValidationError):
            ledger.commit([0], 2.0, 2.0, 1.0)


def overlap_reference(num_edges, pieces, start, end):
    """Per-piece overlap sum over ``[start, end)``: each edge's
    ``rate * overlap`` over ``(start, end, rate, edge id)`` pieces,
    divided by the span — the loop ``background_reference`` runs over
    an accountant's columns."""
    loads = np.zeros(num_edges)
    for p_start, p_end, rate, eid in pieces:
        overlap = min(p_end, end) - max(p_start, start)
        if overlap > 0.0:
            loads[eid] += rate * overlap
    return loads / (end - start)


def live_accountant(topology, rng, num_pieces, window_start):
    """An accountant holding ``num_pieces`` one-hop reservations that
    began by ``window_start`` and end after it: the live pieces a replay
    window inherits from earlier windows."""
    acct = WindowAccountant(topology, PowerModel.quadratic())
    for j in range(num_pieces):
        u, v = topology.edges[int(rng.integers(topology.num_edges))]
        start = window_start - float(rng.uniform(0.0, 8.0))
        end = window_start + float(rng.uniform(0.05, 12.0))
        rate = float(rng.uniform(0.1, 3.0))
        flow = Flow(
            id=j, src=u, dst=v, size=rate * (end - start),
            release=start, deadline=end,
        )
        acct.commit(
            FlowSchedule(
                flow=flow, path=(u, v),
                segments=(Segment(start=start, end=end, rate=rate),),
            )
        )
    return acct


class TestSeededLedger:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_pieces=st.integers(0, 40),
        num_flows=st.integers(1, 30),
        merge_at=st.sampled_from([1, 8, 64]),
    )
    def test_seeded_loads_match_references(
        self, seed, num_pieces, num_flows, merge_at
    ):
        """Seeded with the live pieces, ``loads`` equals the per-piece
        overlap sum over those pieces and the window's own commits, and
        the composition the replay policies used before: the unseeded
        ledger's loads plus the background profile's mean."""
        topology = TOPOLOGIES[0]
        rng = np.random.default_rng(seed)
        window_start = 10.0
        acct = live_accountant(topology, rng, num_pieces, window_start)
        pieces = acct.pieces
        profile = acct.background_profile(window_start, window_start + 1.0)
        seeded = LoadLedger(topology)
        seeded.seed(*pieces)
        own = LoadLedger(topology)
        seeded._MERGE_AT = own._MERGE_AT = merge_at
        every = list(zip(*(column.tolist() for column in pieces)))
        clock = window_start
        for _ in range(num_flows):
            clock += float(rng.exponential(0.3))
            end = clock + float(rng.uniform(0.2, 6.0))
            loads = seeded.loads(clock, end)
            np.testing.assert_allclose(
                loads,
                overlap_reference(topology.num_edges, every, clock, end),
                rtol=1e-9,
                atol=1e-12,
            )
            composed = own.loads(clock, end) + profile.means([clock], [end])[0]
            np.testing.assert_allclose(loads, composed, rtol=1e-9, atol=1e-12)
            k = int(rng.integers(1, 5))
            eids = rng.choice(topology.num_edges, size=k, replace=False)
            rate = float(rng.uniform(0.1, 3.0))
            seeded.commit(eids, clock, end, rate)
            own.commit(eids, clock, end, rate)
            every.extend((clock, end, rate, int(eid)) for eid in eids)

    def test_piece_starting_after_query_start_rejected(self, ft4):
        """The correction math needs every live piece to cover each
        query's left edge; a seeded piece opening later must raise
        rather than return a silently wrong vector."""
        ledger = LoadLedger(ft4)
        ledger.seed([0.0, 4.0], [10.0, 12.0], [1.0, 2.0], [0, 1])
        with pytest.raises(ValidationError):
            ledger.loads(2.0, 8.0)

    def test_seed_obeys_the_commit_rules(self, ft4):
        ledger = LoadLedger(ft4)
        with pytest.raises(ValidationError):
            ledger.seed([0.0], [10.0, 11.0], [1.0], [0])
        with pytest.raises(ValidationError):
            ledger.seed([5.0], [5.0], [1.0], [0])
        ledger.loads(3.0, 6.0)
        with pytest.raises(ValidationError):
            ledger.seed([2.0], [10.0], [1.0], [0])
        ledger.seed([], [], [], [])  # an empty seed is a no-op
        assert np.array_equal(ledger.loads(3.0, 6.0), np.zeros(ft4.num_edges))


class TestOnlineConsumersAgree:
    def test_online_density_matches_profile_rebuild(self, ft4, quadratic):
        """Replay the ledger+router rewrite of solve_online_density against
        the per-flow PiecewiseConstant rebuild + networkx Dijkstra it
        replaced: committing the fast run's own paths step by step, every
        chosen path must be exactly as cheap as the reference's under the
        reference's (identical) marginal."""
        from tests.conftest import random_flows_on
        from repro.core import solve_online_density
        from repro.routing.costs import envelope_cost

        flows = random_flows_on(ft4, 20, seed=11)
        fast = solve_online_density(flows, ft4, quadratic)

        cost = envelope_cost(quadratic)
        committed = {e: PiecewiseConstant() for e in ft4.edges}
        for flow in sorted(flows, key=lambda f: (f.release, str(f.id))):
            span = flow.span_length
            loads = np.zeros(ft4.num_edges)
            for edge, profile in committed.items():
                window = profile.window_integral(flow.release, flow.deadline)
                if window > 0.0:
                    loads[ft4.edge_id(edge)] = window / span
            marginal = np.maximum(cost.derivative(loads), 1e-12)
            reference = marginal_route_reference(
                ft4, flow.src, flow.dst, marginal
            )
            fast_path = fast.paths[flow.id]
            assert path_cost(ft4, fast_path, marginal) == pytest.approx(
                path_cost(ft4, reference, marginal), rel=1e-9
            )
            # Commit the fast run's choice so both trajectories share the
            # same committed state even when equal-cost ties broke apart.
            for edge in path_edges(fast_path):
                committed[edge].add(flow.release, flow.deadline, flow.density)
