"""networkx marginal-cost router: the oracle of the CSR fast path.

:func:`marginal_route_reference` finds the cheapest path under per-edge
marginal costs with :func:`networkx.dijkstra_path` and a Python weight
callback.  :meth:`repro.routing.FastRouter.route` must return paths of
equal cost (``tests/test_fastpath.py``).  No replay, experiment or
library path runs it, so it lives beside the tests; tests and
benchmarks import it as ``tests.oracles.paths``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology, canonical_edge

__all__ = ["marginal_route_reference"]

Path = tuple[str, ...]


def marginal_route_reference(
    topology: Topology, src: str, dst: str, marginal: np.ndarray
) -> Path:
    """Cheapest ``src -> dst`` path under per-edge marginal costs, via
    :func:`networkx.dijkstra_path` with a per-edge Python weight callback.

    The reference for :meth:`repro.routing.fastpath.FastRouter.route`:
    ~10x slower than the CSR fast path, used for cross-checking in the
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
