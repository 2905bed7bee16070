"""Path utilities: k-shortest paths and the networkx marginal-cost
router.

Random-Schedule derives its candidate paths from the fractional relaxation
and every marginal-cost consumer routes through
:class:`repro.routing.fastpath.FastRouter`; this module keeps the classical
path machinery beside them:

* :func:`k_shortest_paths` — the first ``k`` simple paths by hop count
  (Yen's algorithm via :func:`networkx.shortest_simple_paths`), the
  candidate sets of the PowerOfTwo and LeastLoaded replay policies;
* :func:`marginal_route_reference` — the cheapest path under per-edge
  marginal costs via networkx, the oracle that
  :meth:`FastRouter.route <repro.routing.fastpath.FastRouter.route>` is
  pinned against.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import TopologyError, ValidationError
from repro.topology.base import Topology, canonical_edge

__all__ = [
    "k_shortest_paths",
    "marginal_route_reference",
]

Path = tuple[str, ...]


def marginal_route_reference(
    topology: Topology, src: str, dst: str, marginal: np.ndarray
) -> Path:
    """Cheapest ``src -> dst`` path under per-edge marginal costs, via
    :func:`networkx.dijkstra_path` with a per-edge Python weight callback.

    The reference for :meth:`repro.routing.fastpath.FastRouter.route`:
    ~10x slower than the CSR fast path, kept for cross-checking in the
    routing-equivalence property suite.
    """
    if src == dst:
        raise TopologyError("endpoints must differ")
    graph = topology.graph

    def weight(u: str, v: str, _data: dict) -> float:
        return float(marginal[topology.edge_id(canonical_edge(u, v))])

    try:
        return tuple(nx.dijkstra_path(graph, src, dst, weight=weight))
    except nx.NetworkXNoPath as exc:
        raise TopologyError(f"no path between {src!r} and {dst!r}") from exc


def k_shortest_paths(
    topology: Topology,
    src: str,
    dst: str,
    k: int,
    max_hops: int | None = None,
) -> list[Path]:
    """First ``k`` simple ``src -> dst`` paths in hop-count order.

    Stops early when ``max_hops`` is exceeded (the generator yields paths
    in nondecreasing length, so the cut is exact).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not topology.has_node(src) or not topology.has_node(dst):
        raise TopologyError(f"unknown endpoint in ({src!r}, {dst!r})")
    if src == dst:
        raise TopologyError("endpoints must differ")
    paths: list[Path] = []
    try:
        for path in nx.shortest_simple_paths(topology.graph, src, dst):
            if max_hops is not None and len(path) - 1 > max_hops:
                break
            paths.append(tuple(path))
            if len(paths) >= k:
                break
    except nx.NetworkXNoPath as exc:
        raise TopologyError(f"no path between {src!r} and {dst!r}") from exc
    if not paths:
        if max_hops is None:
            raise TopologyError(f"no path between {src!r} and {dst!r}")
        raise TopologyError(
            f"no path between {src!r} and {dst!r} within {max_hops} hops"
        )
    return paths
