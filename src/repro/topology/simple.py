"""Small hand-analyzable topologies: line, star, dumbbell, parallel paths.

These are the networks used by the paper's worked example (Fig. 1) and by
the NP-hardness reductions (Theorems 2 and 3), plus a couple of classics
that make good unit-test fixtures.

.. note::

   The reductions use ``k`` *parallel links* between a source and a sink.
   :class:`networkx.Graph` cannot represent parallel edges, and the whole
   library keys on simple canonical edges, so :func:`parallel_paths`
   realizes each parallel link as a 2-hop relay path ``src - relay_i - dst``.
   Every route then crosses exactly 2 links, which scales all energies by a
   uniform factor of 2 and leaves the reductions' *ratios* untouched; the
   :mod:`repro.hardness` module accounts for the factor explicitly.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import TopologyError
from repro.topology.base import HOST, SWITCH, Topology

__all__ = ["line", "star", "dumbbell", "parallel_paths"]


def line(num_nodes: int = 3, name: str | None = None) -> Topology:
    """A path graph ``n0 - n1 - ... - n{k-1}``; every node is a host.

    The paper's Example 1 uses ``line(3)`` with nodes ``A = n0``,
    ``B = n1``, ``C = n2``.
    """
    if num_nodes < 2:
        raise TopologyError(f"line needs >= 2 nodes, got {num_nodes}")
    graph = nx.Graph()
    names = [f"n{i}" for i in range(num_nodes)]
    for node in names:
        graph.add_node(node, kind=HOST)
    for a, b in zip(names, names[1:]):
        graph.add_edge(a, b)
    return Topology(graph, name=name or f"line-{num_nodes}")


def star(num_leaves: int = 4, name: str | None = None) -> Topology:
    """One central switch ``hub`` with ``num_leaves`` host leaves."""
    if num_leaves < 2:
        raise TopologyError(f"star needs >= 2 leaves, got {num_leaves}")
    graph = nx.Graph()
    graph.add_node("hub", kind=SWITCH)
    for i in range(num_leaves):
        leaf = f"h{i}"
        graph.add_node(leaf, kind=HOST)
        graph.add_edge("hub", leaf)
    return Topology(graph, name=name or f"star-{num_leaves}")


def dumbbell(num_left: int = 2, num_right: int = 2, name: str | None = None) -> Topology:
    """Two access switches joined by one bottleneck link, hosts on each side."""
    if num_left < 1 or num_right < 1:
        raise TopologyError("dumbbell needs >= 1 host on each side")
    graph = nx.Graph()
    graph.add_node("swL", kind=SWITCH)
    graph.add_node("swR", kind=SWITCH)
    graph.add_edge("swL", "swR")
    for i in range(num_left):
        host = f"l{i}"
        graph.add_node(host, kind=HOST)
        graph.add_edge(host, "swL")
    for i in range(num_right):
        host = f"r{i}"
        graph.add_node(host, kind=HOST)
        graph.add_edge(host, "swR")
    return Topology(graph, name=name or f"dumbbell-{num_left}x{num_right}")


def parallel_paths(num_paths: int, name: str | None = None) -> Topology:
    """``src`` and ``dst`` hosts joined by ``num_paths`` disjoint relay paths.

    Used by the Theorem 2/3 reduction instances: choosing a route for a flow
    is exactly choosing which of the ``num_paths`` "links" carries it.  Each
    relay path has 2 physical links (see module note).
    """
    if num_paths < 1:
        raise TopologyError(f"need >= 1 parallel path, got {num_paths}")
    graph = nx.Graph()
    graph.add_node("src", kind=HOST)
    graph.add_node("dst", kind=HOST)
    for i in range(num_paths):
        relay = f"m{i:03d}"
        graph.add_node(relay, kind=SWITCH)
        graph.add_edge("src", relay)
        graph.add_edge(relay, "dst")
    return Topology(graph, name=name or f"parallel-{num_paths}")


#: Number of physical links on each relay path of :func:`parallel_paths`;
#: reduction arithmetic multiplies single-link energies by this constant.
LINKS_PER_PARALLEL_PATH = 2
