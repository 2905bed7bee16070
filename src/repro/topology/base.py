"""Topology abstraction over :mod:`networkx` used throughout the library.

A data center network is an **undirected** graph whose nodes are either
hosts (servers) or switches.  Links are undirected and identical (the paper
assumes commodity switches), each governed by one shared transmission rate
``x_e(t)`` regardless of direction — see DESIGN.md Section 5.

Edges are addressed by a *canonical* ``(u, v)`` tuple with ``u < v`` (node
ids are strings) so that dictionaries keyed by edges are direction-agnostic.
The class also maintains the integer indexing and a directed-arc CSR
adjacency (``indptr`` / ``neighbors`` / ``edge_ids``, compiled once per
topology and cached) shared by every array-native shortest-path consumer:
the Frank–Wolfe solver's batched :func:`scipy.sparse.csgraph.dijkstra`
and the routing core in :mod:`repro.routing.fastpath`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.errors import TopologyError

__all__ = ["Edge", "Topology", "canonical_edge", "path_edges"]

Edge = tuple[str, str]

HOST = "host"
SWITCH = "switch"


def canonical_edge(u: str, v: str) -> Edge:
    """Return the direction-agnostic representative of link ``{u, v}``."""
    if u == v:
        raise TopologyError(f"self-loop edge ({u!r}, {v!r}) is not a link")
    return (u, v) if u < v else (v, u)


def path_edges(path: Sequence[str]) -> tuple[Edge, ...]:
    """Canonical edges along a node path ``[n0, n1, ..., nk]``."""
    if len(path) < 2:
        raise TopologyError(f"path must have at least 2 nodes, got {list(path)!r}")
    return tuple(canonical_edge(a, b) for a, b in zip(path, path[1:]))


class Topology:
    """An undirected DCN graph with host/switch roles and edge indexing.

    Parameters
    ----------
    graph:
        Undirected :class:`networkx.Graph`; every node must carry a
        ``kind`` attribute equal to ``"host"`` or ``"switch"``.
    name:
        Human-readable topology name used in reports.
    groups:
        Optional partition metadata: a partial mapping from node id to the
        label of the *natural locality group* it belongs to (a fat-tree
        pod, a leaf-spine leaf).  Nodes absent from the mapping are
        *backbone* (core/spine) — shared fabric that belongs to no group.
        Consumed by :mod:`repro.service.partition` to shard the topology
        on its natural boundaries.
    """

    def __init__(
        self,
        graph: nx.Graph,
        name: str = "topology",
        groups: Mapping[str, str] | None = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("topology must have at least one node")
        for node, data in graph.nodes(data=True):
            if not isinstance(node, str):
                raise TopologyError(
                    f"node ids must be strings, got {node!r} ({type(node).__name__})"
                )
            if data.get("kind") not in (HOST, SWITCH):
                raise TopologyError(
                    f"node {node!r} must have kind 'host' or 'switch', "
                    f"got {data.get('kind')!r}"
                )
        self._graph = graph
        self.name = name
        self._groups: dict[str, str] = dict(groups) if groups else {}
        for node in self._groups:
            if not graph.has_node(node):
                raise TopologyError(
                    f"group metadata names unknown node {node!r}"
                )

        self._edges: tuple[Edge, ...] = tuple(
            sorted(canonical_edge(u, v) for u, v in graph.edges())
        )
        self._edge_index: dict[Edge, int] = {
            e: i for i, e in enumerate(self._edges)
        }
        self._nodes: tuple[str, ...] = tuple(sorted(graph.nodes()))
        self._node_index: dict[str, int] = {n: i for i, n in enumerate(self._nodes)}

        # Directed-arc CSR adjacency, compiled lazily on first use.
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._csr_lists: tuple[list[int], list[int], list[int]] | None = None
        self._leaf_mask: list[bool] | None = None
        # Source node id -> BFS parent node ids (see ``shortest_path``).
        self._route_trees: dict[int, list[int]] = {}

    def __getstate__(self) -> dict:
        # Route trees are a cache rebuilt on demand; keeping them out of
        # the pickle keeps snapshots (which pickle topologies held by
        # solver state) independent of which routes were asked for.
        state = self.__dict__.copy()
        state["_route_trees"] = {}
        return state

    # ------------------------------------------------------------------
    # Basic accessors.
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        """The underlying :class:`networkx.Graph` (do not mutate)."""
        return self._graph

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node ids, sorted."""
        return self._nodes

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All canonical edges, sorted."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def hosts(self) -> tuple[str, ...]:
        """Server nodes, sorted."""
        return tuple(
            n for n in self._nodes if self._graph.nodes[n]["kind"] == HOST
        )

    @property
    def switches(self) -> tuple[str, ...]:
        """Switch nodes, sorted."""
        return tuple(
            n for n in self._nodes if self._graph.nodes[n]["kind"] == SWITCH
        )

    @property
    def node_groups(self) -> Mapping[str, str]:
        """Natural-locality group labels (partial; empty when unannotated).

        Nodes missing from the mapping are backbone fabric (core/spine
        switches) shared by every group.  Do not mutate.
        """
        return self._groups

    def has_node(self, node: str) -> bool:
        return node in self._node_index

    def edge_id(self, edge: Edge) -> int:
        """Dense integer id of a canonical edge (for numpy vectors)."""
        try:
            return self._edge_index[edge]
        except KeyError:
            raise TopologyError(f"edge {edge!r} not in topology {self.name!r}")

    def node_id(self, node: str) -> int:
        try:
            return self._node_index[node]
        except KeyError:
            raise TopologyError(f"node {node!r} not in topology {self.name!r}")

    def node_at(self, index: int) -> str:
        return self._nodes[index]

    def degree(self, node: str) -> int:
        return int(self._graph.degree[node])

    def neighbors(self, node: str) -> Iterator[str]:
        return iter(self._graph.neighbors(node))

    def __contains__(self, node: str) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({self.name!r}, hosts={len(self.hosts)}, "
            f"switches={len(self.switches)}, links={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Vector/CSR plumbing for solvers.
    # ------------------------------------------------------------------
    def _compile_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build (once) the directed-arc CSR adjacency.

        Each undirected edge contributes two arcs.  ``edge_ids`` maps the
        arc position in the CSR data array back to the undirected edge id.
        """
        if self._csr is None:
            rows: list[int] = []
            cols: list[int] = []
            arc_edge: list[int] = []
            for eid, (u, v) in enumerate(self._edges):
                ui, vi = self._node_index[u], self._node_index[v]
                rows.append(ui)
                cols.append(vi)
                arc_edge.append(eid)
                rows.append(vi)
                cols.append(ui)
                arc_edge.append(eid)
            order = np.lexsort((np.asarray(cols), np.asarray(rows)))
            row_arr = np.asarray(rows, dtype=np.int64)[order]
            neighbors = np.asarray(cols, dtype=np.int64)[order]
            edge_ids = np.asarray(arc_edge, dtype=np.int64)[order]
            indptr = np.zeros(len(self._nodes) + 1, dtype=np.int64)
            np.add.at(indptr, row_arr + 1, 1)
            self._csr = (np.cumsum(indptr), neighbors, edge_ids)
        return self._csr

    @property
    def csr_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, neighbors, edge_ids)`` int arrays of the directed-arc
        CSR adjacency (compiled once and cached).

        ``neighbors[indptr[u]:indptr[u + 1]]`` are the neighbor node ids of
        node ``u`` (see :meth:`node_id`), sorted; the parallel slice of
        ``edge_ids`` gives each arc's undirected edge id, the index into
        every per-edge vector in this library.  Do not mutate.
        """
        return self._compile_csr()

    @property
    def csr_adjacency_lists(self) -> tuple[list[int], list[int], list[int]]:
        """The CSR adjacency as plain Python int lists (cached).

        Pure-Python shortest-path searches (:class:`repro.routing.fastpath.
        FastRouter`) iterate these ~2x faster than numpy scalars.
        """
        if self._csr_lists is None:
            indptr, neighbors, edge_ids = self._compile_csr()
            self._csr_lists = (
                indptr.tolist(),
                neighbors.tolist(),
                edge_ids.tolist(),
            )
        return self._csr_lists

    @property
    def leaf_mask(self) -> list[bool]:
        """Per-node-id flags marking degree-1 nodes (cached).

        A degree-1 node can never be interior to a simple path, so
        shortest-path kernels skip arcs into flagged nodes unless they
        are the destination.
        """
        if self._leaf_mask is None:
            indptr, _, _ = self._compile_csr()
            self._leaf_mask = (np.diff(indptr) == 1).tolist()
        return self._leaf_mask

    def csr_components(
        self, edge_weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(data, indices, indptr)`` with per-arc weights.

        ``edge_weights`` is a dense vector indexed by edge id; both arcs of
        an undirected edge receive the same weight.
        """
        if edge_weights.shape != (self.num_edges,):
            raise TopologyError(
                f"edge_weights must have shape ({self.num_edges},), "
                f"got {edge_weights.shape}"
            )
        indptr, neighbors, edge_ids = self._compile_csr()
        data = edge_weights[edge_ids]
        return data, neighbors, indptr

    def edge_vector(self, values: Mapping[Edge, float] | None = None) -> np.ndarray:
        """Dense edge-indexed vector, optionally initialized from a mapping."""
        vec = np.zeros(self.num_edges)
        if values:
            for edge, value in values.items():
                vec[self.edge_id(edge)] = value
        return vec

    # ------------------------------------------------------------------
    # Paths.
    # ------------------------------------------------------------------
    def shortest_path(self, src: str, dst: str) -> tuple[str, ...]:
        """Deterministic hop-count shortest path (lexicographic tie-break).

        Reads the path off a BFS parent tree rooted at ``src`` that
        expands neighbors in sorted order, so repeated calls and different
        platforms produce identical routes — important for the SP+MCF
        baseline to be reproducible.  The tree is built once per source
        and memoized on the topology: a replay pays at most one BFS per
        host, however many flows it routes.
        """
        if src == dst:
            raise TopologyError("shortest_path requires distinct endpoints")
        if not self.has_node(src) or not self.has_node(dst):
            raise TopologyError(f"unknown endpoint in ({src!r}, {dst!r})")
        root = self._node_index[src]
        parent = self._route_trees.get(root)
        if parent is None:
            parent = self._route_trees[root] = self._bfs_tree(root)
        node = self._node_index[dst]
        if parent[node] < 0:
            raise TopologyError(f"no path between {src!r} and {dst!r}")
        path = [dst]
        while node != root:
            node = parent[node]
            path.append(self._nodes[node])
        return tuple(reversed(path))

    def _bfs_tree(self, root: int) -> list[int]:
        """BFS parent of every node id from ``root`` (-1: unreachable).

        Neighbors are expanded in CSR order, which is sorted node-id
        order, i.e. sorted node-name order: every node gets the parent a
        per-pair sorted-neighbor BFS stopping at it would give it.
        """
        indptr, neighbors, _ = self.csr_adjacency_lists
        parent = [-1] * len(self._nodes)
        parent[root] = root
        frontier = [root]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for nbr in neighbors[indptr[node] : indptr[node + 1]]:
                    if parent[nbr] < 0:
                        parent[nbr] = node
                        next_frontier.append(nbr)
            frontier = next_frontier
        return parent

    def validate_path(self, path: Sequence[str], src: str, dst: str) -> None:
        """Raise :class:`TopologyError` unless ``path`` is a simple
        ``src -> dst`` walk over existing links."""
        if not path or path[0] != src or path[-1] != dst:
            raise TopologyError(
                f"path must start at {src!r} and end at {dst!r}, got {list(path)!r}"
            )
        if len(set(path)) != len(path):
            raise TopologyError(f"path revisits a node: {list(path)!r}")
        for a, b in zip(path, path[1:]):
            if not self._graph.has_edge(a, b):
                raise TopologyError(f"({a!r}, {b!r}) is not a link")

    def path_length(self, path: Sequence[str]) -> int:
        """Number of links on a node path (``|P|`` in the paper)."""
        return len(path) - 1


def build_topology(
    links: Iterable[tuple[str, str]],
    hosts: Iterable[str],
    name: str = "custom",
) -> Topology:
    """Assemble a :class:`Topology` from a link list.

    Every node appearing in ``links`` but not listed in ``hosts`` is marked
    as a switch.  Convenient for tests and small hand-built networks.
    """
    graph = nx.Graph()
    host_set = set(hosts)
    for u, v in links:
        graph.add_edge(u, v)
    for node in graph.nodes:
        graph.nodes[node]["kind"] = HOST if node in host_set else SWITCH
    missing = host_set - set(graph.nodes)
    if missing:
        raise TopologyError(f"hosts {sorted(missing)!r} do not appear in links")
    return Topology(graph, name=name)
