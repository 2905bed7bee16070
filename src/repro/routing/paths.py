"""Path utilities: k-shortest paths.

Random-Schedule derives its candidate paths from the fractional relaxation
and every marginal-cost consumer routes through
:class:`repro.routing.fastpath.FastRouter`; this module keeps the classical
path machinery beside them: :func:`k_shortest_paths`, the first ``k``
simple paths by hop count (Yen's algorithm via
:func:`networkx.shortest_simple_paths`), the candidate sets of the
PowerOfTwo and LeastLoaded replay policies.  The networkx marginal-cost
router that ``FastRouter.route`` is pinned against is the test oracle
``tests/oracles/paths.py``.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import TopologyError, ValidationError
from repro.topology.base import Topology

__all__ = ["k_shortest_paths"]

Path = tuple[str, ...]


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
