"""Tests for the Topology abstraction and edge canonicalization."""

from __future__ import annotations

import pickle

import networkx as nx
import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import (
    Topology,
    build_topology,
    canonical_edge,
    fat_tree,
    jellyfish,
    leaf_spine,
    line,
    path_edges,
)


def _per_pair_bfs(topology: Topology, src: str, dst: str) -> tuple[str, ...]:
    """Oracle: the per-pair sorted-neighbor BFS that stops at ``dst``."""
    if src == dst:
        raise TopologyError("shortest_path requires distinct endpoints")
    if not topology.has_node(src) or not topology.has_node(dst):
        raise TopologyError(f"unknown endpoint in ({src!r}, {dst!r})")
    parent: dict[str, str] = {src: src}
    frontier = [src]
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            for nbr in sorted(topology.graph.neighbors(node)):
                if nbr not in parent:
                    parent[nbr] = node
                    if nbr == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path))
                    next_frontier.append(nbr)
        frontier = next_frontier
    raise TopologyError(f"no path between {src!r} and {dst!r}")


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except TopologyError as exc:
        return None, str(exc)


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge("b", "a") == ("a", "b")
        assert canonical_edge("a", "b") == ("a", "b")

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            canonical_edge("a", "a")

    def test_path_edges(self):
        assert path_edges(["c", "b", "a"]) == (("b", "c"), ("a", "b"))

    def test_path_edges_requires_two_nodes(self):
        with pytest.raises(TopologyError):
            path_edges(["a"])


class TestConstruction:
    def test_requires_kind_attribute(self):
        g = nx.Graph()
        g.add_node("a")
        with pytest.raises(TopologyError):
            Topology(g)

    def test_rejects_unknown_kind(self):
        g = nx.Graph()
        g.add_node("a", kind="router")
        with pytest.raises(TopologyError):
            Topology(g)

    def test_rejects_non_string_nodes(self):
        g = nx.Graph()
        g.add_node(7, kind="host")
        with pytest.raises(TopologyError):
            Topology(g)

    def test_rejects_empty_graph(self):
        with pytest.raises(TopologyError):
            Topology(nx.Graph())

    def test_build_topology_infers_switches(self):
        topo = build_topology([("h0", "sw"), ("h1", "sw")], hosts=["h0", "h1"])
        assert topo.hosts == ("h0", "h1")
        assert topo.switches == ("sw",)

    def test_build_topology_rejects_missing_host(self):
        with pytest.raises(TopologyError):
            build_topology([("a", "b")], hosts=["zz"])


class TestAccessors:
    def test_edges_sorted_and_canonical(self, ft4):
        edges = ft4.edges
        assert list(edges) == sorted(edges)
        assert all(u < v for u, v in edges)

    def test_edge_id_round_trip(self, ft4):
        for i, edge in enumerate(ft4.edges):
            assert ft4.edge_id(edge) == i

    def test_edge_id_unknown_raises(self, ft4):
        with pytest.raises(TopologyError):
            ft4.edge_id(("nope", "zz"))

    def test_node_id_round_trip(self, ft4):
        for node in ft4.nodes:
            assert ft4.node_at(ft4.node_id(node)) == node

    def test_node_id_unknown_raises(self, ft4):
        with pytest.raises(TopologyError):
            ft4.node_id("missing")

    def test_contains(self, ft4):
        assert ft4.hosts[0] in ft4
        assert "missing" not in ft4

    def test_degree_and_neighbors(self, line3):
        assert line3.degree("n1") == 2
        assert sorted(line3.neighbors("n1")) == ["n0", "n2"]

    def test_edge_vector(self, line3):
        vec = line3.edge_vector({("n0", "n1"): 2.5})
        assert vec[line3.edge_id(("n0", "n1"))] == 2.5
        assert vec.sum() == 2.5


class TestShortestPath:
    def test_line(self, line3):
        assert line3.shortest_path("n0", "n2") == ("n0", "n1", "n2")

    def test_symmetric_instances_deterministic(self, ft4):
        h = ft4.hosts
        p1 = ft4.shortest_path(h[0], h[-1])
        p2 = ft4.shortest_path(h[0], h[-1])
        assert p1 == p2

    def test_matches_networkx_length(self, ft4):
        h = ft4.hosts
        for a, b in [(h[0], h[1]), (h[0], h[5]), (h[2], h[-1])]:
            ours = ft4.shortest_path(a, b)
            reference = nx.shortest_path_length(ft4.graph, a, b)
            assert len(ours) - 1 == reference

    def test_same_endpoint_rejected(self, line3):
        with pytest.raises(TopologyError):
            line3.shortest_path("n0", "n0")

    def test_unknown_endpoint_rejected(self, line3):
        with pytest.raises(TopologyError):
            line3.shortest_path("n0", "zz")

    def test_disconnected_raises(self):
        topo = build_topology(
            [("a", "b"), ("c", "d")], hosts=["a", "b", "c", "d"]
        )
        with pytest.raises(TopologyError):
            topo.shortest_path("a", "c")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: fat_tree(4),
            lambda: leaf_spine(),
            lambda: jellyfish(num_switches=12, switch_degree=3, seed=5),
            lambda: build_topology(
                [("a", "s1"), ("s1", "s2"), ("s2", "b"), ("s1", "b"),
                 ("c", "s3"), ("s3", "d")],
                hosts=["a", "b", "c", "d"],
            ),
        ],
        ids=["fat_tree4", "leaf_spine", "jellyfish", "disconnected"],
    )
    def test_route_trees_match_per_pair_bfs(self, make):
        """Every ordered node pair: same route, or the same error."""
        topo = make()
        for src in topo.nodes:
            for dst in topo.nodes:
                assert _outcome(topo.shortest_path, src, dst) == _outcome(
                    _per_pair_bfs, topo, src, dst
                )
        # One memoized tree per source asked for, never per pair.
        assert len(topo._route_trees) == len(topo.nodes)

    def test_route_trees_stay_out_of_pickles(self, ft4):
        h = ft4.hosts
        route = ft4.shortest_path(h[0], h[-1])
        assert ft4._route_trees
        restored = pickle.loads(pickle.dumps(ft4))
        assert restored._route_trees == {}
        assert restored.shortest_path(h[0], h[-1]) == route


class TestValidatePath:
    def test_accepts_valid(self, line3):
        line3.validate_path(("n0", "n1", "n2"), "n0", "n2")

    def test_rejects_wrong_endpoints(self, line3):
        with pytest.raises(TopologyError):
            line3.validate_path(("n0", "n1"), "n0", "n2")

    def test_rejects_phantom_link(self, line3):
        with pytest.raises(TopologyError):
            line3.validate_path(("n0", "n2"), "n0", "n2")

    def test_rejects_revisits(self, ft4):
        h0 = ft4.hosts[0]
        sw = ft4.shortest_path(h0, ft4.hosts[1])[1]
        with pytest.raises(TopologyError):
            ft4.validate_path((h0, sw, h0), h0, h0)

    def test_path_length(self, line3):
        assert line3.path_length(("n0", "n1", "n2")) == 2


class TestCsrComponents:
    def test_shape_validation(self, line3):
        with pytest.raises(TopologyError):
            line3.csr_components(np.zeros(99))

    def test_weights_mirrored_on_both_arcs(self, line3):
        weights = np.array([1.5, 2.5])
        data, indices, indptr = line3.csr_components(weights)
        # Two arcs per undirected edge; total weight doubles.
        assert data.sum() == pytest.approx(2 * weights.sum())
        assert len(data) == 2 * line3.num_edges
        assert indptr[-1] == len(data)

    def test_dijkstra_agrees_with_bfs(self, ft4):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        data, indices, indptr = ft4.csr_components(
            np.ones(ft4.num_edges)
        )
        graph = csr_matrix(
            (data, indices, indptr), shape=(len(ft4.nodes),) * 2
        )
        h = ft4.hosts
        dist = dijkstra(graph, indices=[ft4.node_id(h[0])])[0]
        for other in (h[1], h[7], h[-1]):
            hops = len(ft4.shortest_path(h[0], other)) - 1
            assert dist[ft4.node_id(other)] == pytest.approx(hops)
