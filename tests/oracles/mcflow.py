"""Dict-of-paths Frank–Wolfe: the oracle of the array-native F-MCF engine.

:class:`FrankWolfeSolverReference` is the pre-array implementation of
:class:`repro.routing.FrankWolfeSolver`: plain Frank–Wolfe over nested
``{commodity: {path: flow}}`` dicts, one scipy Dijkstra batch per
iteration and a scalar bisection line search.  No replay, experiment or
library path runs it, so it lives beside the tests as an oracle; tests
and benchmarks import it as ``tests.oracles.mcflow``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.errors import SolverError, ValidationError
from repro.routing.costs import EdgeCost
from repro.routing.mcflow import (
    _PRUNE_FRACTION,
    _WEIGHT_FLOOR,
    Commodity,
    MCFSolution,
    check_fw_settings,
)
from repro.topology.base import Topology, path_edges

__all__ = ["FrankWolfeSolverReference"]


class FrankWolfeSolverReference:
    """Dict-of-paths Frank–Wolfe solver, the pinning oracle.

    This is the pre-array implementation of :class:`FrankWolfeSolver`,
    kept verbatim (see DESIGN.md Sections 7–9).
    ``tests/test_fw_engine.py`` pins the array engine to it;
    ``benchmarks/bench_mcflow.py`` and ``benchmarks/bench_relaxation.py``
    measure the gap.
    """

    def __init__(
        self,
        topology: Topology,
        cost: EdgeCost,
        max_iterations: int = 60,
        gap_tolerance: float = 1e-3,
    ) -> None:
        check_fw_settings(max_iterations, gap_tolerance)
        self._topology = topology
        self._cost = cost
        self._max_iterations = max_iterations
        self._gap_tolerance = gap_tolerance

        n = len(topology.nodes)
        data, indices, indptr = topology.csr_components(
            np.full(topology.num_edges, 1.0)
        )
        self._graph = csr_matrix((data.copy(), indices, indptr), shape=(n, n))
        self._arc_edge = topology.csr_components(
            np.arange(topology.num_edges, dtype=float)
        )[0].astype(np.int64)
        # Cache: node path (names) -> integer edge-id array.
        self._path_eids: dict[tuple[str, ...], np.ndarray] = {}
        # Cache: reversed node-id path -> (name path, edge-id array); paths
        # recur massively across Frank-Wolfe iterations and intervals, so
        # reconstruction from Dijkstra predecessors stays integer-only on
        # cache hits.
        self._idpath_cache: dict[
            tuple[int, ...], tuple[tuple[str, ...], np.ndarray]
        ] = {}

    # ------------------------------------------------------------------
    # Cached path plumbing.
    # ------------------------------------------------------------------
    def _eids(self, path: tuple[str, ...]) -> np.ndarray:
        eids = self._path_eids.get(path)
        if eids is None:
            topo = self._topology
            eids = np.fromiter(
                (topo.edge_id(e) for e in path_edges(path)),
                dtype=np.int64,
                count=len(path) - 1,
            )
            self._path_eids[path] = eids
        return eids

    # ------------------------------------------------------------------
    # Shortest-path machinery.
    # ------------------------------------------------------------------
    def _all_or_nothing(
        self, commodities: Sequence[Commodity], weights: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[str, ...]]]:
        """Assign every commodity to its current shortest path.

        Returns the resulting load vector and the chosen path per commodity
        (in input order).  One Dijkstra per *distinct source*, batched in C.
        """
        topo = self._topology
        self._graph.data = np.maximum(weights, _WEIGHT_FLOOR)[self._arc_edge]
        sources = sorted({c.src for c in commodities})
        source_ids = np.array([topo.node_id(s) for s in sources])
        _dist, predecessors = dijkstra(
            self._graph, directed=True, indices=source_ids,
            return_predecessors=True,
        )
        row_of = {src: i for i, src in enumerate(sources)}

        loads = np.zeros(topo.num_edges)
        paths: list[tuple[str, ...]] = []
        node_at = topo.node_at
        cache = self._idpath_cache
        for commodity in commodities:
            row = predecessors[row_of[commodity.src]]
            src_id = topo.node_id(commodity.src)
            path_ids = [topo.node_id(commodity.dst)]
            while path_ids[-1] != src_id:
                prev = row[path_ids[-1]]
                if prev < 0:
                    raise SolverError(
                        f"no path from {commodity.src!r} to {commodity.dst!r}"
                    )
                path_ids.append(int(prev))
            key = tuple(path_ids)  # reversed (dst -> src) id walk
            hit = cache.get(key)
            if hit is None:
                path = tuple(node_at(i) for i in reversed(path_ids))
                hit = (path, self._eids(path))
                cache[key] = hit
            path, eids = hit
            paths.append(path)
            loads[eids] += commodity.demand
        return loads, paths

    # ------------------------------------------------------------------
    # Exact line search: bisection on the convex directional derivative.
    # ------------------------------------------------------------------
    def _line_search(
        self, loads: np.ndarray, direction: np.ndarray, tol: float = 1e-6
    ) -> float:
        cost = self._cost

        def slope(gamma: float) -> float:
            return float(direction @ cost.derivative(loads + gamma * direction))

        if slope(0.0) >= 0.0:
            return 0.0
        if slope(1.0) <= 0.0:
            return 1.0
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if slope(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # ------------------------------------------------------------------
    # Main solve.
    # ------------------------------------------------------------------
    def solve(
        self,
        commodities: Sequence[Commodity],
        warm_start: MCFSolution | None = None,
    ) -> MCFSolution:
        """Solve the F-MCF instance to the configured duality gap.

        ``warm_start`` reuses a previous solution's path flows for the
        commodities that persist (rescaled if demands changed) — across
        consecutive intervals of Random-Schedule most flows persist, which
        cuts iterations dramatically.
        """
        if not commodities:
            raise ValidationError("solve requires at least one commodity")
        ids = [c.id for c in commodities]
        if len(set(ids)) != len(ids):
            raise ValidationError("commodity ids must be unique")
        topo = self._topology

        path_flows: dict[int | str, dict[tuple[str, ...], float]] = {}
        loads = np.zeros(topo.num_edges)
        fresh: list[Commodity] = []
        if warm_start is not None:
            for commodity in commodities:
                prior = warm_start.path_flows.get(commodity.id)
                if not prior:
                    fresh.append(commodity)
                    continue
                total = sum(prior.values())
                scale = commodity.demand / total
                flows = {path: amount * scale for path, amount in prior.items()}
                path_flows[commodity.id] = flows
                for path, amount in flows.items():
                    loads[self._eids(path)] += amount
        else:
            fresh = list(commodities)

        if fresh:
            aon_loads, aon_paths = self._all_or_nothing(
                fresh, self._cost.derivative(loads)
            )
            loads += aon_loads
            for commodity, path in zip(fresh, aon_paths):
                path_flows[commodity.id] = {path: commodity.demand}

        objective = self._cost.total(loads)
        best_lower = -np.inf
        gap = np.inf
        iteration = 1

        while iteration < self._max_iterations:
            weights = self._cost.derivative(loads)
            aon_loads, aon_paths = self._all_or_nothing(commodities, weights)

            # Dual bound from the linearization:
            # f(x) + f'(x)·(y - x) <= f(y) for all feasible y, minimized at
            # the all-or-nothing point, so this is a valid lower bound.
            slack = float(weights @ (loads - aon_loads))
            best_lower = max(best_lower, objective - slack)
            gap = (objective - best_lower) / max(abs(objective), 1e-30)
            if gap <= self._gap_tolerance:
                break

            gamma = self._line_search(loads, aon_loads - loads)
            if gamma <= 1e-12:
                # Numerical stall: the gap bound says we are not optimal but
                # the line search cannot move; accept the current point.
                break

            loads = loads + gamma * (aon_loads - loads)
            keep = 1.0 - gamma
            for commodity, path in zip(commodities, aon_paths):
                flows = path_flows[commodity.id]
                for existing in flows:
                    flows[existing] *= keep
                flows[path] = flows.get(path, 0.0) + gamma * commodity.demand
            objective = self._cost.total(loads)
            iteration += 1

        # Prune vanishing path-flow entries once, after convergence.
        for commodity in commodities:
            flows = path_flows[commodity.id]
            prune = _PRUNE_FRACTION * commodity.demand
            for path in [p for p, v in flows.items() if v < prune]:
                del flows[path]

        if not np.isfinite(best_lower):
            # Zero iterations of the dual bound (max_iterations == 1).
            best_lower = 0.0
        return MCFSolution(
            objective=objective,
            lower_bound=min(best_lower, objective),
            link_loads=loads,
            path_flows=path_flows,
            relative_gap=float(max(gap, 0.0)) if np.isfinite(gap) else 1.0,
            iterations=iteration,
        )
