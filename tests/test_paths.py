"""Tests for path enumeration utilities (k-shortest paths)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import TopologyError, ValidationError
from repro.routing import k_shortest_paths
from repro.topology import build_topology


class TestKShortest:
    def test_orders_by_length(self, ft4):
        h = ft4.hosts
        paths = k_shortest_paths(ft4, h[0], h[-1], k=6)
        lengths = [len(p) - 1 for p in paths]
        assert lengths == sorted(lengths)
        assert len(paths) == 6

    def test_paths_are_valid_and_distinct(self, ft4):
        h = ft4.hosts
        paths = k_shortest_paths(ft4, h[0], h[-1], k=4)
        assert len(set(paths)) == 4
        for path in paths:
            ft4.validate_path(path, h[0], h[-1])

    def test_max_hops_cut(self, ft4):
        h = ft4.hosts
        paths = k_shortest_paths(ft4, h[0], h[-1], k=50, max_hops=6)
        assert all(len(p) - 1 <= 6 for p in paths)
        # A k=4 fat-tree has exactly 4 six-hop core routes between pods.
        assert len(paths) == 4

    def test_unique_path_topology(self, line3):
        assert k_shortest_paths(line3, "n0", "n2", k=5) == [("n0", "n1", "n2")]

    def test_validation(self, line3):
        with pytest.raises(ValidationError):
            k_shortest_paths(line3, "n0", "n2", k=0)
        with pytest.raises(TopologyError):
            k_shortest_paths(line3, "n0", "n0", k=1)
        with pytest.raises(TopologyError):
            k_shortest_paths(line3, "n0", "zz", k=1)

    def test_disconnected(self):
        topo = build_topology([("a", "b"), ("c", "d")], hosts=["a", "b", "c", "d"])
        with pytest.raises(TopologyError):
            k_shortest_paths(topo, "a", "c", k=1)

    def test_disconnected_chains_networkx_cause(self):
        """The TopologyError must keep the NetworkXNoPath chain (it was
        dropped by a bare re-raise) and must not claim a hop bound that
        was never set."""
        topo = build_topology([("a", "b"), ("c", "d")], hosts=["a", "b", "c", "d"])
        with pytest.raises(TopologyError) as excinfo:
            k_shortest_paths(topo, "a", "c", k=1)
        assert isinstance(excinfo.value.__cause__, nx.NetworkXNoPath)
        assert "None" not in str(excinfo.value)

    def test_max_hops_too_tight(self, ft4):
        h = ft4.hosts
        with pytest.raises(TopologyError):
            k_shortest_paths(ft4, h[0], h[-1], k=3, max_hops=1)

    def test_max_hops_message_names_the_bound(self, ft4):
        h = ft4.hosts
        with pytest.raises(TopologyError, match="within 1 hops"):
            k_shortest_paths(ft4, h[0], h[-1], k=3, max_hops=1)
