"""Fractional multi-commodity flow with convex costs, via Frank–Wolfe.

This is the "solved by convex programming" step of Random-Schedule
(Algorithm 2, step 3).  Each elementary interval yields one F-MCF problem:
route every active flow's *density* ``D_i`` from its source to its sink so
that ``sum_e cost(x_e)`` is minimized, where ``cost`` is the convex
(envelope) link cost.

Frank–Wolfe (the classical traffic-assignment algorithm) fits perfectly:

* every iteration linearizes the objective at the current loads and solves
  the linear subproblem — an *all-or-nothing* assignment of each commodity
  to the shortest path under marginal costs;
* an exact 1-D line search (bisection on the convex directional
  derivative) moves toward that assignment;
* the linearization yields a **certified lower bound**
  ``f(x) + f'(x)·(x_aon - x) <= OPT`` — which is what the DCFSR lower
  bound uses, so looser stopping tolerances never invalidate Figure 2's
  normalization; and crucially
* the iterates are built from explicit paths, so the per-flow **path
  decomposition** Algorithm 2 needs (step 4) falls out for free, with no
  Raghavan–Tompson extraction from edge flows.

Two implementations live here (DESIGN.md Section 9):

* :class:`FrankWolfeSolver` — the array-native engine.  Path-flow state is
  a :class:`PathRegistry` (interned path id -> CSR edge-id row) plus flat
  ``(flow, owner, path id)`` row arrays, so the per-iteration rescaling,
  load scatters and final pruning are single vectorized operations; the
  exact line search bisects over the direction's nonzero support only;
  and every classic step is followed by Newton-sized pairwise (away-step)
  sweeps that drain every commodity's worst active path into its cheapest
  one (normally the freshly added all-or-nothing path), cutting iteration
  counts on ill-conditioned envelope costs while still emitting the
  certified Frank–Wolfe dual bound each iteration.
* :class:`FrankWolfeSolverReference` — the dict-of-paths predecessor,
  retained verbatim as the pinning oracle (``tests/test_fw_engine.py``).

The array engine has one Frank–Wolfe loop, the block loop of
:meth:`FrankWolfeSolver.solve_stacked` (DESIGN.md Sections 16 and 19).
It solves *many independent* F-MCF instances (Random-Schedule's
elementary intervals) as one block problem: blocks start from the path
splits of time-averaged union problems, loads live in an
interval-offset edge space, one shortest-path batch per round covers
every (block, source) pair, the line search runs once per block, and
the stop rule is a weighted certificate over all blocks.  A single
instance (:meth:`FrankWolfeSolver.solve`) is the one-block stack,
seeded all-or-nothing.

:class:`RelaxationSession` carries the registry, CSR scratch and flow rows
across *consecutive* F-MCF solves and applies commodity-set diffs —
enter/leave/rescale — before running the same one-block loop on the
carried rows.  It was the interval sweep's engine before the stacked
solve and is kept as its sequential reference.

Shortest paths are batched per distinct source through
:func:`scipy.sparse.csgraph.dijkstra` (C speed) over a CSR matrix whose
weight array is updated in place, and reconstructed predecessor walks are
interned by their integer id sequence — this is what makes the full
80-switch Figure-2 experiment tractable in pure Python.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import ceil, comb, log2
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro import kernels
from repro.errors import SolverError, ValidationError
from repro.routing.costs import EdgeCost
from repro.topology.base import Topology, path_edges

__all__ = [
    "Commodity",
    "MCFSolution",
    "ArrayPathFlows",
    "PathRegistry",
    "FrankWolfeSolver",
    "FrankWolfeSolverReference",
    "RelaxationSession",
    "check_fw_settings",
]

#: Uniform tiny edge weight ensuring shortest-path = fewest hops when all
#: marginal costs vanish (e.g. sigma = 0 at zero load).
_WEIGHT_FLOOR = 1e-12

#: Path-flow entries below this fraction of the demand are pruned.
_PRUNE_FRACTION = 1e-9

#: Line-search steps at or below this are treated as a numerical stall.
_STALL_STEP = 1e-12

#: A pairwise sweep that improves a block's objective by less than this,
#: relatively, ends that block's sweeping for the round.
_PAIRWISE_STOP = 1e-7
# Pairwise sweeps per round.  Blocks sweep in lock step, so every sweep
# costs the slowest block's; three per round measured fastest end to end
# on the Relax+Round replay (DESIGN.md Section 16), where a cap of eight
# cost ~10% more CPU.
_STACKED_SWEEPS = 3
# Blocks per group of the stacked solve's seed: each run of this many
# consecutive blocks starts from one union problem, and the groups'
# unions are themselves solved stacked (recursively, down to one block).
# 8 measured fastest on the 200-interval windows of bench_relax_replay
# (32: 13% slower, one union for all: 95% slower) and made no measurable
# difference on the ~25-interval windows of the end-to-end benchmark.
_SEED_GROUP = 8

#: Entry budget of one stacked shortest-path call: a chunk of blocks is
#: searched as one block-diagonal graph, and scipy allocates a (sources x
#: chunk nodes) distance and predecessor matrix for it, so chunks close
#: once ``sources * blocks * core nodes`` would pass this (768 KiB).
#: Larger chunks were slower on the Relax+Round replay, not faster.
_DIJKSTRA_CHUNK_ENTRIES = 1 << 16


def check_fw_settings(max_iterations, gap_tolerance) -> None:
    """Reject Frank–Wolfe stopping settings no solve can honour.

    ``max_iterations`` must be >= 1 and ``gap_tolerance`` a finite
    number > 0; NaN fails both comparisons, so it is rejected instead of
    silently running every solve to the iteration cap.  Policies and
    services that build solvers later (per window, or in a worker) call
    this at construction so a bad setting fails there.
    """
    if not max_iterations >= 1:
        raise ValidationError(
            f"max_iterations must be >= 1, got {max_iterations!r}"
        )
    if not 0.0 < gap_tolerance < float("inf"):
        raise ValidationError(
            f"gap_tolerance must be finite and > 0, got {gap_tolerance!r}"
        )


@dataclass(frozen=True)
class Commodity:
    """One demand: route ``demand`` units from ``src`` to ``dst``."""

    id: int | str
    src: str
    dst: str
    demand: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValidationError(f"commodity {self.id!r}: src == dst")
        if not self.demand > 0:
            raise ValidationError(
                f"commodity {self.id!r}: demand must be > 0, got {self.demand}"
            )


class PathRegistry:
    """Interned node paths with CSR edge-id rows.

    Paths recur massively across Frank–Wolfe iterations and intervals; the
    registry assigns each distinct path a dense integer id and stores its
    edge ids in one concatenated array indexed by ``indptr`` rows, so any
    set of paths can be scattered onto the per-edge load vector (or have
    its marginal costs summed) with a handful of vectorized operations.
    Registries only grow; ids stay valid for the registry's lifetime.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._paths: list[tuple[str, ...] | None] = []
        self._id_paths: list[tuple[int, ...]] = []
        self._eids = np.empty(1024, dtype=np.int64)
        self._indptr = np.zeros(257, dtype=np.int64)
        self._n_paths = 0
        self._n_eids = 0
        self._iota = np.arange(1024)

    def __len__(self) -> int:
        return self._n_paths

    def path(self, pid: int) -> tuple[str, ...]:
        """The node path of a registered id (named lazily, then cached)."""
        path = self._paths[pid]
        if path is None:
            path = tuple(map(self._topology.node_at, self._id_paths[pid]))
            self._paths[pid] = path
        return path

    def intern_ids(self, ids: tuple[int, ...], eids: np.ndarray) -> int:
        """Register a node-id path without building its name tuple.

        Callers are expected to dedupe (the solver keys reconstructed
        walks by their bytes); names materialize on first :meth:`path`.
        """
        pid = self._n_paths
        k = eids.size
        if self._n_paths + 1 >= self._indptr.size:
            self._indptr = np.resize(self._indptr, self._indptr.size * 2)
        while self._n_eids + k > self._eids.size:
            self._eids = np.resize(self._eids, self._eids.size * 2)
        self._eids[self._n_eids : self._n_eids + k] = eids
        self._n_eids += k
        self._indptr[pid + 1] = self._n_eids
        self._n_paths = pid + 1
        self._paths.append(None)
        self._id_paths.append(ids)
        return pid

    def gather(
        self, pids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated edge ids of ``pids``: ``(flat_eids, lens, starts)``.

        ``starts`` gives each path's offset into ``flat_eids`` (the
        ``np.add.reduceat`` row boundaries).
        """
        pids = np.asarray(pids, dtype=np.int64)
        indptr = self._indptr
        row_starts = indptr[pids]
        lens = indptr[pids + 1] - row_starts
        total = int(lens.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, lens, empty
        cum = np.cumsum(lens)
        starts = cum - lens
        offsets = np.repeat(starts, lens)
        if total > self._iota.size:
            self._iota = np.arange(max(total, self._iota.size * 2))
        flat = np.repeat(row_starts, lens) + (self._iota[:total] - offsets)
        return self._eids[flat], lens, starts

    def scatter(
        self, pids: np.ndarray, amounts: np.ndarray, num_edges: int
    ) -> np.ndarray:
        """Per-edge load vector of ``amounts[i]`` routed along ``pids[i]``."""
        flat, lens, _ = self.gather(pids)
        if flat.size == 0:
            return np.zeros(num_edges)
        return np.bincount(
            flat, weights=np.repeat(amounts, lens), minlength=num_edges
        )


@dataclass(frozen=True)
class ArrayPathFlows:
    """Array view of a solution's path flows (one row per active path).

    ``registry`` maps ``path_ids`` rows back to node paths and edge ids;
    ``owner_slots[i]`` indexes ``commodity_ids``.  Consumers that stay in
    id space (per-commodity load rebuilds) avoid the nested-dict
    representation entirely.
    """

    registry: PathRegistry
    path_ids: np.ndarray
    amounts: np.ndarray
    owner_slots: np.ndarray
    commodity_ids: tuple[int | str, ...]

    def rows_for(self, commodity_id: int | str) -> np.ndarray:
        """Row indices belonging to one commodity."""
        slot = self.commodity_ids.index(commodity_id)
        return np.flatnonzero(self.owner_slots == slot)

    def edge_loads(self, num_edges: int) -> np.ndarray:
        """Aggregate per-edge loads of all rows (all commodities)."""
        return self.registry.scatter(self.path_ids, self.amounts, num_edges)


class _LazyPathFlows(Mapping):
    """Commodity id -> {node path -> amount}, materialized on demand.

    Many consumers of :class:`MCFSolution` (the lower bound, the interval
    sweep's aggregate accounting) never touch the nested-dict path flows;
    building them lazily keeps those callers fully array-native.  The
    materialization accumulates amounts per name path, so duplicate
    registry ids for one physical path are benign.
    """

    __slots__ = ("_arrays", "_dict")

    def __init__(self, arrays: ArrayPathFlows) -> None:
        self._arrays = arrays
        self._dict: dict[
            int | str, dict[tuple[str, ...], float]
        ] | None = None

    def _materialize(self) -> dict[int | str, dict[tuple[str, ...], float]]:
        flows = self._dict
        if flows is None:
            arrays = self._arrays
            registry = arrays.registry
            ids = arrays.commodity_ids
            flows = {cid: {} for cid in ids}
            for owner, pid, amount in zip(
                arrays.owner_slots.tolist(),
                arrays.path_ids.tolist(),
                arrays.amounts.tolist(),
            ):
                per_path = flows[ids[owner]]
                path = registry.path(pid)
                per_path[path] = per_path.get(path, 0.0) + amount
            self._dict = flows
        return flows

    def __getitem__(self, key: int | str) -> dict[tuple[str, ...], float]:
        return self._materialize()[key]

    def __iter__(self):
        return iter(self._arrays.commodity_ids)

    def __len__(self) -> int:
        return len(self._arrays.commodity_ids)


@dataclass(frozen=True)
class MCFSolution:
    """A fractional routing.

    Attributes
    ----------
    objective:
        Total convex cost at the final loads (primal value).
    lower_bound:
        Best certified Frank–Wolfe dual bound seen; satisfies
        ``lower_bound <= OPT <= objective``.
    link_loads:
        Dense per-edge load vector (indexed by ``Topology.edge_id``).
    path_flows:
        Commodity id -> {node path -> absolute flow amount}; amounts sum to
        the commodity's demand.
    relative_gap:
        ``(objective - lower_bound) / max(|objective|, tiny)`` at exit.
    iterations:
        Iterations performed (including the initial all-or-nothing).
    arrays:
        Array view of the path flows (None for solutions produced by the
        reference solver).
    """

    objective: float
    lower_bound: float
    link_loads: np.ndarray
    path_flows: Mapping[int | str, Mapping[tuple[str, ...], float]]
    relative_gap: float
    iterations: int
    arrays: ArrayPathFlows | None = None

    def path_fractions(
        self, commodity_id: int | str
    ) -> dict[tuple[str, ...], float]:
        """Path weights normalized to sum to 1 (the ``y*`` proportions)."""
        flows = self.path_flows[commodity_id]
        total = sum(flows.values())
        if total <= 0:
            raise SolverError(
                f"commodity {commodity_id!r} has no routed flow"
            )  # pragma: no cover
        return {path: amount / total for path, amount in flows.items()}

    def edge_flows(
        self, topology: Topology, commodity_id: int | str
    ) -> np.ndarray:
        """Per-edge flow of one commodity, derived from its path flows."""
        vec = np.zeros(topology.num_edges)
        for path, amount in self.path_flows[commodity_id].items():
            for edge in path_edges(path):
                vec[topology.edge_id(edge)] += amount
        return vec


class _Prep(NamedTuple):
    """Per-solve commodity geometry shared by every iteration.

    When the topology is leaf-contractible (every degree-1 node hangs off
    a higher-degree *core* node), both endpoints are contracted: a leaf's
    single incident edge is a forced first/last hop, so Dijkstra runs on
    the core subgraph between the attachment points and the leaf hops are
    re-attached during reconstruction.  On host-heavy fabrics this
    collapses both the node count and the distinct-source count (e.g. 64
    fat-tree hosts share 16 edge switches).

    Shortest-path sources are distinct ``(block, core source)`` pairs,
    sorted by block: a single solve is block 0 throughout, a stacked
    solve searches each block under its own weights.
    """

    demands: np.ndarray
    src_rows: np.ndarray
    src_ids: np.ndarray
    dst_ids: np.ndarray
    src_contracted: list[bool]
    dst_contracted: list[bool]
    start_core: np.ndarray
    target_core: np.ndarray
    source_ids: np.ndarray
    source_blocks: np.ndarray
    srcs: list[str]
    dsts: list[str]


class _FlowState:
    """Flat active path-flow rows: ``(owner slot, path id, amount)``.

    Rows are append-only between compactions, with the concatenated edge
    ids of every row cached alongside (``eids``/``lens``/``starts``), so
    rescaling is one vectorized multiply, the load rebuild is one weighted
    ``bincount``, and per-row marginal path costs are one ``reduceat``.

    ``owner_offset`` (stacked solves) shifts every row's cached edge ids
    by its owner's block offset, ``eid + block * num_edges``; path ids
    stay block-independent.
    """

    __slots__ = (
        "registry", "n", "owner", "pid", "flow",
        "m", "eids", "lens", "starts", "owner_offset",
        "_keys_sorted", "_rows_sorted", "_index_dirty",
    )

    def __init__(
        self, registry: PathRegistry, owner_offset: np.ndarray | None = None
    ) -> None:
        self.registry = registry
        self.owner_offset = owner_offset
        self.n = 0
        self.owner = np.empty(64, dtype=np.int64)
        self.pid = np.empty(64, dtype=np.int64)
        self.flow = np.empty(64)
        self.m = 0
        self.eids = np.empty(256, dtype=np.int64)
        self.lens = np.empty(64, dtype=np.int64)
        self.starts = np.empty(64, dtype=np.int64)
        self._keys_sorted = np.empty(0, dtype=np.int64)
        self._rows_sorted = np.empty(0, dtype=np.int64)
        self._index_dirty = True

    def _row_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(owner << 32 | pid)`` keys with their row numbers."""
        if self._index_dirty:
            keys = (self.owner[: self.n] << 32) | self.pid[: self.n]
            order = np.argsort(keys)
            self._keys_sorted = keys[order]
            self._rows_sorted = order
            self._index_dirty = False
        return self._keys_sorted, self._rows_sorted

    def add_batch(
        self, owners: np.ndarray, pids: np.ndarray, amounts: np.ndarray
    ) -> None:
        """Add ``amounts[i]`` to each row ``(owners[i], pids[i])``.

        The (owner, pid) pairs must be distinct within one call.  Existing
        rows update in one vectorized scatter; only genuinely new rows
        are appended.
        """
        keys, rows = self._row_index()
        queries = (owners << 32) | pids
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
            found = keys[pos] == queries
        else:
            pos = np.zeros(queries.size, dtype=np.int64)
            found = np.zeros(queries.size, dtype=bool)
        if found.any():
            self.flow[rows[pos[found]]] += amounts[found]
        missing = np.flatnonzero(~found)
        if missing.size:
            self._append_batch(
                owners[missing], pids[missing], amounts[missing]
            )

    def _append_batch(
        self, owners: np.ndarray, pids: np.ndarray, amounts: np.ndarray
    ) -> None:
        """Append brand-new rows in bulk (no existing-row check)."""
        k = owners.size
        n = self.n
        need = n + k
        if need > self.owner.size:
            grow = max(need, self.owner.size * 2)
            self.owner = np.resize(self.owner, grow)
            self.pid = np.resize(self.pid, grow)
            self.flow = np.resize(self.flow, grow)
            self.lens = np.resize(self.lens, grow)
            self.starts = np.resize(self.starts, grow)
        flat, lens, starts = self._gather(owners, pids)
        while self.m + flat.size > self.eids.size:
            self.eids = np.resize(self.eids, self.eids.size * 2)
        self.eids[self.m : self.m + flat.size] = flat
        self.starts[n:need] = self.m + starts
        self.lens[n:need] = lens
        self.owner[n:need] = owners
        self.pid[n:need] = pids
        self.flow[n:need] = amounts
        self.m += flat.size
        self.n = need
        self._index_dirty = True

    def _gather(
        self, owners: np.ndarray, pids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`PathRegistry.gather` shifted into the owners' blocks."""
        flat, lens, starts = self.registry.gather(pids)
        if self.owner_offset is not None and flat.size:
            flat = flat + np.repeat(self.owner_offset[owners], lens)
        return flat, lens, starts

    def loads(self, num_edges: int) -> np.ndarray:
        """Aggregate per-edge loads of all rows."""
        if self.n == 0:
            return np.zeros(num_edges)
        return np.bincount(
            self.eids[: self.m],
            weights=np.repeat(self.flow[: self.n], self.lens[: self.n]),
            minlength=num_edges,
        )

    def path_costs(self, weights: np.ndarray) -> np.ndarray:
        """Per-row sum of ``weights`` over the row's edges."""
        if self.n == 0:
            return np.empty(0)
        kn = kernels.active()
        if kn is not None:
            out = np.empty(self.n)
            kn.row_costs(
                self.eids[: self.m], self.starts[: self.n],
                self.lens[: self.n], weights, out,
            )
            return out
        return np.add.reduceat(
            weights[self.eids[: self.m]], self.starts[: self.n]
        )

    def compact(
        self, keep: np.ndarray, new_owner: np.ndarray | None = None
    ) -> None:
        """Drop rows where ``keep`` is False, optionally remapping owners.

        ``new_owner`` maps old owner slots to new ones; rows must only be
        kept where the mapping is defined (>= 0).
        """
        n = self.n
        owner = self.owner[:n][keep]
        if new_owner is not None:
            owner = new_owner[owner]
        pid = self.pid[:n][keep]
        flow = self.flow[:n][keep]
        flat, lens, starts = self._gather(owner, pid)
        k = owner.size
        if k > self.owner.size:  # pragma: no cover - keep never grows rows
            self.owner = np.resize(self.owner, k)
            self.pid = np.resize(self.pid, k)
            self.flow = np.resize(self.flow, k)
            self.lens = np.resize(self.lens, k)
            self.starts = np.resize(self.starts, k)
        self.owner[:k] = owner
        self.pid[:k] = pid
        self.flow[:k] = flow
        self.n = k
        if flat.size > self.eids.size:
            self.eids = np.resize(self.eids, flat.size)
        self.eids[: flat.size] = flat
        self.lens[:k] = lens
        self.starts[:k] = starts
        self.m = flat.size
        self._index_dirty = True


class FrankWolfeSolver:
    """Array-native Frank–Wolfe solver bound to one topology and edge cost.

    Instances cache the CSR adjacency, the path registry and the interned
    predecessor walks across calls, so reusing one solver for many related
    instances (as Random-Schedule's interval sweep does) is much faster
    than constructing fresh solvers.

    Every solve runs one loop (:class:`_StackedRun`): per round, one
    shortest-path batch and the certified dual bound, a classic step
    toward the all-or-nothing point, then up to ``_STACKED_SWEEPS``
    pairwise (away-step) sweeps — per commodity, mass moves from the
    worst active path to the cheapest active one (normally the
    all-or-nothing path the step just brought in), Newton-sized from the
    cost curvature and scaled by one exact line search per block.

    Parameters
    ----------
    topology, cost:
        The network and the convex per-edge cost.
    max_iterations, gap_tolerance:
        Stopping criteria (iteration budget / relative duality gap).
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
        self._poly_degree = cost.polynomial_degree
        # Fixed per-edge background loads of the active solve (committed
        # traffic the commodities route around); None outside a solve.
        self._background: np.ndarray | None = None

        n = len(topology.nodes)
        self._registry = PathRegistry(topology)
        # Cache: (src id, dst id, reversed core walk) key bytes ->
        # registered path id.  Hits stay integer-only; name paths are
        # built on first sight only.
        self._walk_pid: dict[bytes, int] = {}
        # (prep, walk matrix, pids) of the previous _aon_pids call.
        self._last_walks: tuple | None = None

        # --- Search graph: the core subgraph when every leaf hangs off a
        # core node, else the full graph. ---
        indptr_a, neighbors_a, edge_ids_a = topology.csr_adjacency
        leaf = np.array(topology.leaf_mask, dtype=bool)
        arc_u = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(indptr_a)
        )
        leaf_ids = np.flatnonzero(leaf)
        attach = neighbors_a[indptr_a[leaf_ids]]
        self._contract = bool(
            (~leaf).any() and (leaf_ids.size == 0 or not leaf[attach].any())
        )
        core_mask = ~leaf if self._contract else np.ones(n, dtype=bool)
        core_nodes = np.flatnonzero(core_mask)
        nc = core_nodes.size
        core_of = np.full(n, -1, dtype=np.int64)
        core_of[core_nodes] = np.arange(nc)
        keep = core_mask[arc_u] & core_mask[neighbors_a]
        cu = core_of[arc_u[keep]]
        cv = core_of[neighbors_a[keep]]
        self._search_arc_edge = edge_ids_a[keep]
        core_indptr = np.zeros(nc + 1, dtype=np.int64)
        np.add.at(core_indptr, cu + 1, 1)
        core_indptr = np.cumsum(core_indptr)
        self._graph = csr_matrix(
            (np.ones(cu.size), cv.copy(), core_indptr), shape=(nc, nc)
        )
        #: copies -> block-diagonal CSR of that many core graphs (stacked
        #: shortest-path chunks); 1 maps to ``_graph`` itself.
        self._block_graphs: dict[int, csr_matrix] = {1: self._graph}
        self._core_of = core_of
        self._core_nodes = core_nodes
        self._leaf = leaf
        # Core arcs are CSR-sorted by (u, v), so `u * nc + v` keys decode
        # whole walk batches to undirected edge ids via one searchsorted;
        # the dict covers the contracted leaf hops (one lookup per miss).
        self._num_core = nc
        self._arc_keys = cu * nc + cv
        self._arc_vals = edge_ids_a[keep]
        ip = indptr_a.tolist()
        nb = neighbors_a.tolist()
        ei = edge_ids_a.tolist()
        self._arc_eid: dict[tuple[int, int], int] = {
            (u, nb[t]): ei[t]
            for u in range(n)
            for t in range(ip[u], ip[u + 1])
        }
        self._attach_of = {
            int(l): int(a) for l, a in zip(leaf_ids.tolist(), attach.tolist())
        }
        # --- Compiled-tier state (repro.kernels): the core CSR arrays
        # shared with the kernels, plus per-source shortest-path trees
        # kept alive across _aon_pids calls.  Weights move smoothly
        # between Frank-Wolfe iterations (and between the interval
        # sweep's consecutive solves), so each batch re-roots the
        # previous tree and repairs only the affected cone instead of
        # running a cold Dijkstra per source. ---
        self._k_indptr = core_indptr
        self._k_indices = cv
        #: (block, source core id) -> (dist, pred, parc) of its last tree.
        #: Keyed per block: the blocks of a stacked solve carry unrelated
        #: weights, so one tree per raw source would be re-rooted from
        #: another block's weights on every lookup.
        self._spt_cache: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self._k_scratch: tuple[np.ndarray, ...] | None = None

    @property
    def registry(self) -> PathRegistry:
        """The solver's path registry (shared by its sessions)."""
        return self._registry

    def _point(self, loads: np.ndarray) -> np.ndarray:
        """Total per-edge loads the cost sees: commodity flow plus the
        fixed background of the active solve (identity when none)."""
        background = self._background
        return loads if background is None else loads + background

    def _set_background(self, background: np.ndarray | None) -> None:
        if background is not None:
            background = self._check_background(background)
        self._background = background

    def _check_background(self, background) -> np.ndarray:
        background = np.asarray(background, dtype=float)
        if background.shape != (self._topology.num_edges,):
            raise ValidationError(
                f"background must have one entry per edge "
                f"({self._topology.num_edges}), got shape {background.shape}"
            )
        finite = np.isfinite(background)
        if not finite.all():
            edge = int(np.flatnonzero(~finite)[0])
            raise ValidationError(
                f"background load of edge {edge} is not finite: "
                f"{background[edge]}"
            )
        if np.any(background < 0.0):
            raise ValidationError("background loads must be >= 0")
        return background

    # ------------------------------------------------------------------
    # Per-solve commodity plumbing.
    # ------------------------------------------------------------------
    def _prep(
        self,
        commodities: Sequence[Commodity],
        slot_block: np.ndarray | None = None,
    ) -> _Prep:
        """Commodity geometry; ``slot_block[i]`` is commodity ``i``'s
        block in a stacked solve (None: one block)."""
        topo = self._topology
        node_id = topo.node_id
        srcs = [c.src for c in commodities]
        dsts = [c.dst for c in commodities]
        demands = np.array([c.demand for c in commodities])
        src_ids = np.array([node_id(s) for s in srcs], dtype=np.int64)
        dst_ids = np.array([node_id(d) for d in dsts], dtype=np.int64)
        if self._contract:
            leaf = self._leaf
            attach = self._attach_of
            src_contracted = leaf[src_ids].tolist()
            dst_contracted = leaf[dst_ids].tolist()
            eff_src = np.array(
                [
                    attach[s] if is_leaf else s
                    for s, is_leaf in zip(src_ids.tolist(), src_contracted)
                ],
                dtype=np.int64,
            )
            eff_dst = np.array(
                [
                    attach[d] if is_leaf else d
                    for d, is_leaf in zip(dst_ids.tolist(), dst_contracted)
                ],
                dtype=np.int64,
            )
        else:
            src_contracted = [False] * len(srcs)
            dst_contracted = [False] * len(dsts)
            eff_src = src_ids
            eff_dst = dst_ids
        core_of = self._core_of
        target_core = core_of[eff_src]
        start_core = core_of[eff_dst]
        return _Prep(
            demands=demands,
            src_ids=src_ids,
            dst_ids=dst_ids,
            src_contracted=src_contracted,
            dst_contracted=dst_contracted,
            start_core=start_core,
            target_core=target_core,
            srcs=srcs,
            dsts=dsts,
            **self._sources(target_core, slot_block),
        )

    def _sources(
        self, target_core: np.ndarray, slot_block: np.ndarray | None
    ) -> dict[str, np.ndarray]:
        """The ``_Prep`` source fields: distinct ``(block, source)``
        rows sorted by block, and each commodity's row."""
        keys = target_core
        if slot_block is not None:
            keys = slot_block * self._num_core + target_core
        source_keys = np.unique(keys)
        return dict(
            src_rows=np.searchsorted(source_keys, keys),
            source_ids=source_keys % self._num_core,
            source_blocks=source_keys // self._num_core,
        )

    def _subset_prep(
        self, prep: _Prep, rows: np.ndarray, slot_block: np.ndarray
    ) -> _Prep:
        """``prep`` restricted to commodities ``rows`` (whose blocks are
        ``slot_block``), without re-resolving any node name."""
        pick = rows.tolist()
        target_core = prep.target_core[rows]
        return prep._replace(
            demands=prep.demands[rows],
            src_ids=prep.src_ids[rows],
            dst_ids=prep.dst_ids[rows],
            src_contracted=[prep.src_contracted[i] for i in pick],
            dst_contracted=[prep.dst_contracted[i] for i in pick],
            start_core=prep.start_core[rows],
            target_core=target_core,
            srcs=[prep.srcs[i] for i in pick],
            dsts=[prep.dsts[i] for i in pick],
            **self._sources(target_core, slot_block),
        )

    def _aon_pids(self, prep: _Prep, weights: np.ndarray) -> np.ndarray:
        """All-or-nothing assignment: each commodity's shortest path id.

        One Dijkstra per *distinct (contracted) source*, batched in C over
        the search graph.  Predecessor walks for every commodity advance
        in lock-step as vectorized gathers (commodities already at their
        target hold still), walk arcs decode to edge ids in one bulk
        ``searchsorted``, and each ``(src, dst, walk)`` row prefix keys
        the path-id cache by its raw bytes.

        With the kernel tier active the scipy batch is replaced by
        per-source incremental shortest-path trees
        (:meth:`_spt_predecessors`): exact distances, but equal-cost
        ties may resolve differently than scipy's — always at equal
        cost, which is the level the solver suite pins.

        ``weights`` may span several blocks of the stacked edge space
        (``block * num_edges + eid``); each source row then searches its
        own block's weights and its predecessor row is in core ids, so
        walks and their path-id cache are block-independent.
        """
        num_edges = self._topology.num_edges
        warc = np.maximum(weights, _WEIGHT_FLOOR).reshape(-1, num_edges)[
            :, self._search_arc_edge
        ]
        kn = kernels.active()
        if kn is not None:
            predecessors = self._spt_predecessors(
                prep.source_ids, prep.source_blocks, warc, kn
            )
        else:
            predecessors = self._dijkstra_blocks(
                prep.source_ids, prep.source_blocks, warc
            )
        src_rows = prep.src_rows
        targets = prep.target_core
        cur = prep.start_core.copy()
        walks = [prep.src_ids, prep.dst_ids, cur.copy()]
        active = cur != targets
        while active.any():
            nxt = predecessors[src_rows, cur]
            bad = active & (nxt < 0)
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                raise SolverError(
                    f"no path from {prep.srcs[j]!r} to {prep.dsts[j]!r}"
                )
            cur = np.where(active, nxt.astype(np.int64), cur)
            walks.append(cur.copy())
            active = cur != targets
        # Rows: [src id, dst id, reversed core walk..., target padding].
        walk_matrix = np.column_stack(walks)
        core_walks = walk_matrix[:, 2:]
        hops = np.argmax(core_walks == targets[:, None], axis=1)
        if core_walks.shape[1] > 1:
            # Undirected edge ids of every core walk arc, in bulk (padding
            # columns produce garbage positions that are never sliced).
            arc_query = (
                core_walks[:, :-1] * self._num_core + core_walks[:, 1:]
            )
            positions = np.minimum(
                np.searchsorted(self._arc_keys, arc_query.ravel()),
                self._arc_keys.size - 1,
            )
            walk_eids = self._arc_vals[positions].reshape(arc_query.shape)
        else:
            walk_eids = None

        walk_pid = self._walk_pid
        registry = self._registry
        arc_eid = self._arc_eid
        core_nodes = self._core_nodes
        src_list = prep.src_ids.tolist()
        dst_list = prep.dst_ids.tolist()
        src_contracted = prep.src_contracted
        dst_contracted = prep.dst_contracted
        out = np.empty(len(prep.srcs), dtype=np.int64)
        # Consecutive iterations of one solve mostly repeat their walks;
        # one vector compare against the previous iteration's matrix
        # carries those path ids over without touching the cache.
        last = self._last_walks
        if (
            last is not None
            and last[0] is prep
            and last[1].shape == walk_matrix.shape
        ):
            unchanged = (last[1] == walk_matrix).all(axis=1)
            out[unchanged] = last[2][unchanged]
            todo = np.flatnonzero(~unchanged).tolist()
        else:
            todo = range(out.size)
        itemsize = walk_matrix.itemsize
        stride = walk_matrix.shape[1] * itemsize
        buffer = walk_matrix.tobytes()
        hop_list = hops.tolist()
        for j in todo:
            # The key stops at the target: the padding width follows the
            # batch's longest walk, and would otherwise re-register the
            # same path whenever that changes.
            h = hop_list[j]
            start = j * stride
            key = buffer[start : start + (h + 3) * itemsize]
            pid = walk_pid.get(key)
            if pid is None:
                ids = core_nodes[core_walks[j, : h + 1][::-1]].tolist()
                src_c = src_contracted[j]
                dst_c = dst_contracted[j]
                eids = np.empty(h + src_c + dst_c, dtype=np.int64)
                if h:
                    eids[src_c : src_c + h] = walk_eids[j, :h][::-1]
                if src_c:
                    eids[0] = arc_eid[(src_list[j], ids[0])]
                    ids = [src_list[j]] + ids
                if dst_c:
                    eids[-1] = arc_eid[(ids[-1], dst_list[j])]
                    ids = ids + [dst_list[j]]
                pid = registry.intern_ids(tuple(ids), eids)
                walk_pid[key] = pid
            out[j] = pid
        self._last_walks = (prep, walk_matrix, out)
        return out

    def _dijkstra_blocks(
        self,
        source_ids: np.ndarray,
        source_blocks: np.ndarray,
        warc: np.ndarray,
    ) -> np.ndarray:
        """Core predecessor rows of every ``(block, source)`` pair.

        Rows are sorted by block.  Consecutive blocks are grouped into
        chunks, each searched by one scipy ``dijkstra`` call over a
        block-diagonal copy of the core graph carrying each block's arc
        weights (``warc[block]``).  A chunk closes before its
        ``sources x nodes`` result would pass ``_DIJKSTRA_CHUNK_ENTRIES``,
        and only each row's own diagonal block is kept, so the returned
        matrix is ``(sources, core nodes)`` however many blocks there are.
        """
        nc = self._num_core
        blocks, first = np.unique(source_blocks, return_index=True)
        counts = np.diff(np.append(first, source_ids.size)).tolist()
        blocks_list = blocks.tolist()
        out = np.empty((source_ids.size, nc), dtype=np.int32)
        lo = 0
        row = 0
        while lo < len(blocks_list):
            hi = lo + 1
            rows = counts[lo]
            while (
                hi < len(blocks_list)
                and (rows + counts[hi]) * (hi + 1 - lo) * nc
                <= _DIJKSTRA_CHUNK_ENTRIES
            ):
                rows += counts[hi]
                hi += 1
            copies = hi - lo
            graph = self._block_graph(copies)
            graph.data = warc[blocks[lo:hi]].ravel()
            position = np.repeat(np.arange(copies), counts[lo:hi])
            shift = position * nc
            pred = dijkstra(
                graph, directed=True,
                indices=source_ids[row : row + rows] + shift,
                return_predecessors=True,
            )[1]
            # Keep each row's own diagonal block, back in core ids (an
            # unreachable node's negative marker stays negative).
            out[row : row + rows] = (
                pred.reshape(rows, copies, nc)[np.arange(rows), position]
                - shift[:, None]
            )
            row += rows
            lo = hi
        return out

    def _block_graph(self, copies: int) -> csr_matrix:
        """Block-diagonal CSR of ``copies`` core graphs (cached)."""
        graph = self._block_graphs.get(copies)
        if graph is None:
            nc = self._num_core
            indptr = self._k_indptr
            indices = self._k_indices
            arcs = indices.size
            shift = np.arange(copies)[:, None]
            graph = csr_matrix(
                (
                    np.ones(copies * arcs),
                    (indices + shift * nc).ravel(),
                    np.append(
                        (indptr[:-1] + shift * arcs).ravel(), copies * arcs
                    ),
                ),
                shape=(copies * nc, copies * nc),
            )
            self._block_graphs[copies] = graph
        return graph

    def _spt_predecessors(
        self,
        source_ids: np.ndarray,
        source_blocks: np.ndarray,
        warc: np.ndarray,
        kn,
    ) -> np.ndarray:
        """Per-source predecessor rows via incremental shortest-path trees.

        Drop-in replacement for the scipy ``dijkstra`` batch of
        :meth:`_aon_pids` when the kernel tier is active.  Each distinct
        ``(block, source)`` keeps its last tree ``(dist, pred, parc)`` in
        ``self._spt_cache`` — across Frank-Wolfe iterations *and* across
        consecutive solves — so all but the first batch per source run
        :func:`repro.kernels._impl.spt_repair` (re-weigh the old tree,
        seed a heap from one arc scan, label-correct the affected cone)
        instead of a cold Dijkstra.  Distances are exact for any weight
        change; only equal-cost tie parents may differ from a cold run.
        """
        nc = self._num_core
        if self._k_scratch is None:
            cap = 2 * self._k_indices.size + 4
            self._k_scratch = (
                np.empty(cap),
                np.empty(cap, dtype=np.int64),
                np.empty(nc, dtype=np.int64),
                np.empty(nc, dtype=np.int64),
                np.empty(nc, dtype=np.int64),
            )
        heap_key, heap_node, child_head, child_next, stack = self._k_scratch
        cache = self._spt_cache
        predecessors = np.empty((source_ids.size, nc), dtype=np.int64)
        for row, (src, block) in enumerate(
            zip(source_ids.tolist(), source_blocks.tolist())
        ):
            block_warc = warc[block]
            tree = cache.get((block, src))
            if tree is None:
                dist = np.empty(nc)
                pred = np.empty(nc, dtype=np.int64)
                parc = np.empty(nc, dtype=np.int64)
                kn.spt_tree(
                    self._k_indptr, self._k_indices, block_warc, src,
                    dist, pred, parc, heap_key, heap_node,
                )
                cache[(block, src)] = (dist, pred, parc)
            else:
                dist, pred, parc = tree
                kn.spt_repair(
                    self._k_indptr, self._k_indices, block_warc, src,
                    dist, pred, parc, heap_key, heap_node,
                    child_head, child_next, stack,
                )
            predecessors[row] = pred
        return predecessors

    # ------------------------------------------------------------------
    # Exact line search: bisection on the convex directional derivative,
    # restricted to the direction's nonzero support.
    # ------------------------------------------------------------------
    def _exact_steps(
        self,
        point: np.ndarray,
        direction: np.ndarray,
        blocks: int,
        tol: float = 1e-6,
    ) -> np.ndarray:
        """Exact line search along ``direction`` from ``point`` for every
        block of a stacked edge space at once: one step size in [0, 1]
        per block (0 where a block's direction is 0).

        Power-law costs take their closed form / scalar-polynomial root
        from per-block moment sums (an ``(blocks, num_edges)`` reshape);
        other costs bisect all blocks' convex directional derivatives in
        lock step to ``tol``, each iteration one vector derivative over
        the direction's support.
        """
        if self._poly_degree is not None:
            return _polynomial_steps(
                point.reshape(blocks, -1),
                direction.reshape(blocks, -1),
                self._poly_degree,
            )
        gamma = np.zeros(blocks)
        support = np.flatnonzero(direction)
        if support.size == 0:
            return gamma
        d = direction[support]
        base = point[support]
        owner = support // (direction.size // blocks)
        derivative = self._cost.derivative

        def slope(step: np.ndarray) -> np.ndarray:
            return np.bincount(
                owner,
                weights=d * derivative(base + step[owner] * d),
                minlength=blocks,
            )

        at_zero = slope(gamma)
        at_one = slope(np.ones(blocks))
        lo = np.zeros(blocks)
        hi = np.ones(blocks)
        for _ in range(max(0, ceil(-log2(tol)))):
            mid = 0.5 * (lo + hi)
            below = slope(mid) < 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return np.where(
            at_zero >= 0.0, 0.0, np.where(at_one <= 0.0, 1.0, 0.5 * (lo + hi))
        )

    # ------------------------------------------------------------------
    # Pairwise sweep direction.
    # ------------------------------------------------------------------
    def _pairwise_direction(
        self, state: _FlowState, loads: np.ndarray, prep: _Prep
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """One pairwise (away-step) equilibration sweep over all rows,
        before its line search: ``(point, per-row delta, per-edge
        direction)``, None when no commodity can move.

        A batched generalization of pairwise Frank–Wolfe: within each
        commodity, mass drains out of expensive active paths (the away
        atoms, worst first by construction) into cheap ones — normally
        the all-or-nothing path the preceding classic step just brought
        in.  Per-row moves are projected-Newton sized: against the
        curvature-weighted mean marginal cost ``lambda`` of the
        commodity's active set (so moves sum to zero per commodity),
        clipped at zero flow (an uncapped negative move is a drop step
        that empties its atom) with the clipped deficit rebalanced onto
        the receiving paths.  Every endpoint is an existing row, so the
        sweep is pure array arithmetic; :meth:`_StackedRun.sweeps` scales
        it with one exact line search per block."""
        n = state.n
        k = prep.demands.size
        point = self._point(loads)
        weights = self._cost.derivative(point)
        quadratic = self._poly_degree == 2
        kn = kernels.active()
        if kn is not None:
            # Fused kernel path: gathers, lambda, clipped Newton move,
            # rebalance and direction scatter in one pass — same
            # arithmetic as the numpy expressions below up to reduceat's
            # blocked summation order (pinned bit for bit against a
            # sequential replica in tests/test_kernels; solver-level
            # agreement is certified by the dual bound).
            if quadratic:
                inv_h = 1.0 / (
                    (2.0 * self._cost.power.mu) * state.lens[:n]
                )
            else:
                curvature = self._cost.curvature(point)
                row_curv = np.empty(n)
                kn.row_costs(
                    state.eids[: state.m], state.starts[:n],
                    state.lens[:n], curvature, row_curv,
                )
                inv_h = 1.0 / np.maximum(row_curv, 1e-30)
            delta = np.empty(n)
            direction = np.empty(loads.size)
            moved = kn.pairwise_delta(
                state.eids[: state.m], state.lens[:n], state.starts[:n],
                state.owner[:n], state.flow[:n], weights, inv_h,
                prep.demands, not quadratic, delta, direction,
            )
            if not moved:
                return None
        else:
            costs = state.path_costs(weights)
            flow = state.flow[:n]
            owner = state.owner[:n]
            if quadratic:
                # Constant curvature 2 mu: the row Hessian is just the hop
                # count, no per-edge gather needed.
                inv_h = 1.0 / (
                    (2.0 * self._cost.power.mu) * state.lens[:n]
                )
            else:
                curvature = self._cost.curvature(point)
                inv_h = 1.0 / np.maximum(
                    np.add.reduceat(curvature[state.eids[: state.m]],
                                    state.starts[:n]),
                    1e-30,
                )
            lam_den = np.bincount(owner, weights=inv_h, minlength=k)
            lam = np.bincount(owner, weights=costs * inv_h, minlength=k)
            lam /= np.maximum(lam_den, 1e-30)
            # Newton move per row, kept feasible (>= -flow).
            delta = np.maximum((lam[owner] - costs) * inv_h, -flow)
            if not quadratic:
                # On the envelope's zero-curvature segments the Newton
                # step is unbounded; cap it at the demand and let the
                # line search decide (the cap would only distort
                # well-conditioned cases).
                delta = np.minimum(delta, prep.demands[owner])
            negative = np.minimum(delta, 0.0)
            positive = delta - negative
            pos_sum = np.bincount(owner, weights=positive, minlength=k)
            neg_sum = np.bincount(owner, weights=-negative, minlength=k)
            # Demand conservation: scale the receiving rows to absorb
            # exactly the clipped outflow.  A commodity with no receiving
            # row cannot rebalance — dropping only its negatives would
            # *lose* mass, so it must not move at all.
            can_move = pos_sum > 0.0
            factor = np.where(
                can_move, neg_sum / np.maximum(pos_sum, 1e-30), 0.0
            )
            delta = np.where(
                can_move[owner], negative + positive * factor[owner], 0.0
            )
            if not np.any(delta):
                return None
            direction = np.bincount(
                state.eids[: state.m],
                weights=np.repeat(delta, state.lens[:n]),
                minlength=loads.size,
            )
        return point, delta, direction

    # ------------------------------------------------------------------
    # Main solve.
    # ------------------------------------------------------------------
    def solve(
        self,
        commodities: Sequence[Commodity],
        background: np.ndarray | None = None,
    ) -> MCFSolution:
        """Solve the F-MCF instance to the configured duality gap: the
        one-block :meth:`solve_stacked`, seeded all-or-nothing.

        ``background`` fixes additional per-edge loads (committed traffic
        the commodities must route *around*, e.g. reservations carried
        across replay windows); the cost, its derivative, and the
        certified bound are all evaluated at ``commodity loads +
        background``, while ``link_loads``/``path_flows`` report the
        commodity flow alone.  A
        :class:`~repro.routing.background.BackgroundProfile` is resolved
        one layer up, in :func:`repro.core.relaxation.solve_relaxation`,
        which hands each elementary interval its own ``mean_over`` slice.

        Consecutive related instances warm-start through
        :class:`RelaxationSession`, which diffs commodity sets and keeps
        the flow rows of the previous solve.
        """
        return self.solve_stacked([commodities], [background])[0]

    # ------------------------------------------------------------------
    # Stacked solve.
    # ------------------------------------------------------------------
    def solve_stacked(
        self,
        blocks: Sequence[Sequence[Commodity]],
        backgrounds: Sequence[np.ndarray | None] | None = None,
        block_weights: Sequence[float] | np.ndarray | None = None,
    ) -> list[MCFSolution]:
        """Solve independent F-MCF instances as one block problem.

        Block ``b`` routes ``blocks[b]`` around the fixed per-edge loads
        ``backgrounds[b]`` (None: none); the result holds one
        :class:`MCFSolution` per block, with that block's own loads, path
        rows and a certified dual bound ``lower_bound <= OPT_b``.

        Layout: block ``b``'s loads occupy ``[b * E, (b + 1) * E)`` of one
        stacked load vector.  Path ids are block-independent (one
        registry and walk cache for all blocks); a flow row's cached edge
        ids are shifted by its block's offset.  Blocks start from the
        path splits of their group's union problem (see
        :meth:`_StackedRun.union_seed`).  Every round runs one
        shortest-path batch over all ``(block, source)`` pairs of the
        still-open blocks (:meth:`_dijkstra_blocks`), certifies each
        block, then takes a classic step and the pairwise sweeps with one
        exact line search per block — each a fixed number of vector
        operations however many blocks there are.

        Stopping: the weighted certificate
        ``sum_b w_b (f_b - lb_b) <= gap_tolerance * sum_b w_b |f_b|`` with
        ``w = block_weights`` (default 1).  For the interval relaxation
        ``w_b = |I_b|``, which makes it the relative gap between
        :attr:`~repro.core.relaxation.RelaxationResult.objective` and its
        ``lower_bound``.  A block whose own gap closes drops out of later
        rounds; ``max_iterations`` caps the rounds.
        """
        num_blocks = len(blocks)
        if num_blocks == 0:
            return []
        for commodities in blocks:
            _validate_commodities(commodities)
        lengths = (
            np.ones(num_blocks)
            if block_weights is None
            else np.asarray(block_weights, dtype=float)
        )
        if lengths.shape != (num_blocks,) or not np.all(lengths >= 0.0) or (
            not np.all(np.isfinite(lengths))
        ):
            raise ValidationError(
                "block_weights must hold one finite weight >= 0 per block"
            )
        background = None
        if backgrounds is not None:
            if len(backgrounds) != num_blocks:
                raise ValidationError(
                    f"got {len(backgrounds)} backgrounds for "
                    f"{num_blocks} blocks"
                )
            if any(bg is not None for bg in backgrounds):
                zero = np.zeros(self._topology.num_edges)
                background = np.concatenate(
                    [
                        zero if bg is None else self._check_background(bg)
                        for bg in backgrounds
                    ]
                )
        slot_block = np.repeat(
            np.arange(num_blocks), [len(block) for block in blocks]
        )
        stacked = [c for block in blocks for c in block]
        self._background = background
        try:
            run = _StackedRun(self, stacked, slot_block, num_blocks, lengths)
            return run.solve(blocks)
        finally:
            self._background = None


class _StackedRun:
    """The Frank–Wolfe loop of the array engine: the state of one
    :meth:`FrankWolfeSolver.solve_stacked` call or one
    :class:`RelaxationSession` solve.

    ``slot_block[s]`` is the block of stacked commodity slot ``s`` (slots
    are grouped by block); per-block quantities are length-``blocks``
    vectors, and a boolean block mask selects which blocks a step moves.
    ``state`` (a session's carried rows) defaults to an empty row set.
    """

    def __init__(
        self,
        solver: FrankWolfeSolver,
        commodities: list[Commodity],
        slot_block: np.ndarray,
        blocks: int,
        lengths: np.ndarray,
        state: _FlowState | None = None,
    ) -> None:
        self.solver = solver
        self.commodities = commodities
        self.slot_block = slot_block
        self.blocks = blocks
        self.lengths = lengths
        self.num_edges = solver._topology.num_edges
        self.tolerance = solver._gap_tolerance
        self.prep = solver._prep(commodities, slot_block)
        if state is None:
            state = _FlowState(solver._registry, slot_block * self.num_edges)
        self.state = state
        self._view_key: bytes | None = None
        self._view: tuple[_Prep, np.ndarray] | None = None

    # --- per-block quantities -------------------------------------------
    def objectives(self, loads: np.ndarray) -> np.ndarray:
        solver = self.solver
        value = solver._cost.value(solver._point(loads))
        return value.reshape(self.blocks, -1).sum(axis=1)

    def certified(self, f: np.ndarray, lower: np.ndarray) -> np.ndarray:
        return f - lower <= self.tolerance * np.maximum(np.abs(f), 1e-30)

    def window_gap(self, f: np.ndarray, lower: np.ndarray) -> float:
        """The weighted relative gap of the whole stack (inf until every
        block holds a bound)."""
        if not np.all(np.isfinite(lower)):
            return np.inf
        return float(
            self.lengths @ (f - lower) / max(self.lengths @ np.abs(f), 1e-30)
        )

    def window_certified(self, f: np.ndarray, lower: np.ndarray) -> bool:
        return self.window_gap(f, lower) <= self.tolerance

    def _row_block(self) -> np.ndarray:
        return self.slot_block[self.state.owner[: self.state.n]]

    def _per_edge(self, per_block: np.ndarray) -> np.ndarray:
        return np.repeat(per_block, self.num_edges)

    # --- all-or-nothing batch ---------------------------------------------
    def view(self, mask: np.ndarray) -> tuple[_Prep, np.ndarray]:
        """``(prep, slots)`` of the commodities in ``mask``'s blocks; the
        same objects while the mask holds, so the walk carry-over of
        :meth:`FrankWolfeSolver._aon_pids` keeps working."""
        key = mask.tobytes()
        if key != self._view_key:
            slots = np.flatnonzero(mask[self.slot_block])
            if slots.size == self.slot_block.size:
                prep = self.prep
            else:
                prep = self.solver._subset_prep(
                    self.prep, slots, self.slot_block[slots]
                )
            self._view_key = key
            self._view = (prep, slots)
        return self._view

    def aon(self, mask: np.ndarray, loads: np.ndarray):
        """Marginal weights at ``loads`` plus the all-or-nothing batch of
        ``mask``'s blocks: ``(weights, (aon loads, path ids, prep,
        slots))``."""
        solver = self.solver
        prep, slots = self.view(mask)
        weights = solver._cost.derivative(solver._point(loads))
        pids = solver._aon_pids(prep, weights)
        flat, lens, _ = self.state._gather(slots, pids)
        aon_loads = np.bincount(
            flat, weights=np.repeat(prep.demands, lens), minlength=loads.size
        )
        return weights, (aon_loads, pids, prep, slots)

    # --- steps --------------------------------------------------------------
    def classic(self, loads: np.ndarray, batch, mask: np.ndarray):
        """Frank–Wolfe step of ``mask``'s blocks toward the batch's
        all-or-nothing point; returns the loads and the blocks that
        stepped (a block at a numerical stall accepts its point)."""
        aon_loads, aon_pids, prep, slots = batch
        solver = self.solver
        direction = aon_loads - loads
        direction.reshape(self.blocks, -1)[~mask] = 0.0
        gamma = solver._exact_steps(
            solver._point(loads), direction, self.blocks
        )
        stepped = mask & (gamma > _STALL_STEP)
        gamma = np.where(stepped, gamma, 0.0)
        state = self.state
        state.flow[: state.n] *= 1.0 - gamma[self._row_block()]
        take = stepped[self.slot_block[slots]]
        if take.any():
            state.add_batch(
                slots[take],
                aon_pids[take],
                gamma[self.slot_block[slots[take]]] * prep.demands[take],
            )
        return loads + self._per_edge(gamma) * direction, stepped

    def sweeps(
        self,
        loads: np.ndarray,
        f: np.ndarray,
        lower: np.ndarray,
        mask: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Up to ``_STACKED_SWEEPS`` pairwise sweeps
        (:meth:`FrankWolfeSolver._pairwise_direction`) of ``mask``'s
        blocks, each scaled by one exact line search per block; returns
        the updated loads and objectives.

        A block leaves the sweep once it stalls, improves by less than
        ``_PAIRWISE_STOP`` relatively, or its stale gap against
        ``lower`` (a certified bound, or -inf) certifies, and all stop
        once the stale window gap does: the next round top would certify
        without another shortest-path batch, so further polishing is
        wasted.  A bound never exceeds the optimum, so the stale gap
        over-estimates the true gap and the early stop cannot
        under-certify."""
        solver = self.solver
        sweeping = mask & ~self.certified(f, lower)
        for _ in range(_STACKED_SWEEPS):
            if not sweeping.any() or self.window_certified(f, lower):
                break
            move = solver._pairwise_direction(self.state, loads, self.prep)
            if move is None:
                break
            point, delta, direction = move
            direction.reshape(self.blocks, -1)[~sweeping] = 0.0
            gamma = solver._exact_steps(
                point, direction, self.blocks, tol=1e-4
            )
            moved = sweeping & (gamma > _STALL_STEP)
            if not moved.any():
                break
            gamma = np.where(moved, gamma, 0.0)
            self.state.flow[: self.state.n] += gamma[self._row_block()] * delta
            loads = loads + self._per_edge(gamma) * direction
            previous = f
            f = self.objectives(loads)
            sweeping = (
                moved
                & (previous - f >= _PAIRWISE_STOP * np.abs(f))
                & ~self.certified(f, lower)
            )
        return loads, f

    # --- solve loop ---------------------------------------------------------
    def seed(self, slots: np.ndarray) -> None:
        """All-or-nothing seed: route each of ``slots`` whole on its
        shortest path at the current loads, each block at its own
        background."""
        solver = self.solver
        prep = self.prep
        if slots.size < self.slot_block.size:
            prep = solver._subset_prep(prep, slots, self.slot_block[slots])
        loads = self.state.loads(self.blocks * self.num_edges)
        pids = solver._aon_pids(
            prep, solver._cost.derivative(solver._point(loads))
        )
        self.state.add_batch(slots, pids, self.prep.demands[slots])

    def union_seed(self) -> None:
        """Seed every slot of an empty row set: a lone block
        all-or-nothing, a larger stack with each commodity's path split in
        its group's union problem.

        Blocks are grouped in runs of ``_SEED_GROUP``.  A group's union
        holds each of its distinct commodities at the weight-averaged
        demand over the group, on the weight-averaged background; all
        groups' unions are solved together by one nested stacked solve,
        which recurses down to one block.  Consecutive intervals share
        most of their commodities, so a union's split is close to each of
        its blocks' optima: it already holds the equal-cost paths a cold
        block would otherwise spend a round apiece discovering."""
        if self.blocks == 1:
            self.seed(np.arange(self.slot_block.size))
            return
        solver = self.solver
        num_edges = self.num_edges
        group = np.arange(self.blocks) // _SEED_GROUP
        groups = int(group[-1]) + 1
        slot_group = group[self.slot_block]
        keys: dict = {}
        slot_union = np.array(
            [keys.setdefault((g, c.id, c.src, c.dst), len(keys))
             for g, c in zip(slot_group.tolist(), self.commodities)],
            dtype=np.int64,
        )
        count = len(keys)
        first = np.unique(slot_union, return_index=True)[1]
        union_group = slot_group[first]
        group_total = np.bincount(
            group, weights=self.lengths, minlength=groups
        )
        share = self.lengths[self.slot_block]
        demand = self.prep.demands
        # A union with zero total weight keeps its first slot's demand.
        avg = np.bincount(slot_union, weights=demand * share, minlength=count)
        total = group_total[union_group]
        avg = np.where(total > 0.0, avg / np.maximum(total, 1e-300), 0.0)
        avg = np.where(avg > 0.0, avg, demand[first])
        union = [
            Commodity(
                self.commodities[s].id, self.commodities[s].src,
                self.commodities[s].dst, float(d),
            )
            for s, d in zip(first.tolist(), avg.tolist())
        ]
        stacked_bg = solver._background
        mean_bg = None
        if stacked_bg is not None:
            sums = np.zeros((groups, num_edges))
            np.add.at(
                sums,
                group,
                stacked_bg.reshape(self.blocks, -1) * self.lengths[:, None],
            )
            mean_bg = sums / np.maximum(group_total, 1e-300)[:, None]
        group_start = np.searchsorted(union_group, np.arange(groups + 1))
        try:
            parts = solver.solve_stacked(
                [
                    union[group_start[g] : group_start[g + 1]]
                    for g in range(groups)
                ],
                None if mean_bg is None else list(mean_bg),
                group_total,
            )
        finally:
            # The nested solve resets the solver's background on exit.
            solver._background = stacked_bg
        owner = np.concatenate(
            [
                part.arrays.owner_slots + group_start[g]
                for g, part in enumerate(parts)
            ]
        )
        path_ids = np.concatenate([part.arrays.path_ids for part in parts])
        amounts = np.concatenate([part.arrays.amounts for part in parts])
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        pid = path_ids[order]
        frac = amounts[order] / avg[owner]
        starts = np.searchsorted(owner, np.arange(count))
        per = np.bincount(owner, minlength=count)[slot_union]
        total_rows = int(per.sum())
        idx = np.repeat(starts[slot_union], per) + (
            np.arange(total_rows) - np.repeat(np.cumsum(per) - per, per)
        )
        slots = np.repeat(np.arange(slot_union.size), per)
        self.state.add_batch(slots, pid[idx], frac[idx] * demand[slots])

    def solve(
        self, blocks: Sequence[Sequence[Commodity]]
    ) -> list[MCFSolution]:
        """Run rounds from the current rows (union-seeded when there are
        none) until the certificate holds or ``max_iterations`` caps."""
        solver = self.solver
        if self.state.n == 0:
            self.union_seed()
        loads = self.state.loads(self.blocks * self.num_edges)
        open_ = np.ones(self.blocks, dtype=bool)
        f = self.objectives(loads)
        lower = np.full(self.blocks, -np.inf)
        iterations = np.ones(self.blocks, dtype=np.int64)
        rounds = 1
        while rounds < solver._max_iterations:
            # Stale bounds first: the steps only lower f, so last round's
            # certificates may already close blocks (or the window).
            open_ &= ~self.certified(f, lower)
            if not open_.any() or self.window_certified(f, lower):
                break
            weights, batch = self.aon(open_, loads)
            # Per-block dual bound of the linearization:
            # f(x) + f'(x)·(y - x) <= f(y) for all feasible y, minimized
            # at the all-or-nothing point, so f - slack <= OPT.
            slack = (weights * (loads - batch[0])).reshape(
                self.blocks, -1
            ).sum(axis=1)
            lower = np.where(open_, np.maximum(lower, f - slack), lower)
            open_ &= ~self.certified(f, lower)
            if not open_.any() or self.window_certified(f, lower):
                break
            loads, open_ = self.classic(loads, batch, open_)
            iterations += open_
            f = self.objectives(loads)
            loads, f = self.sweeps(loads, f, lower, open_)
            rounds += 1
        return self.finish(blocks, loads, f, lower, iterations)

    def finish(self, blocks, loads, f, lower, iterations) -> list[MCFSolution]:
        """Prune vanishing rows from the state, then split it into one
        solution per block."""
        state = self.state
        keep = state.flow[: state.n] >= (
            _PRUNE_FRACTION * self.prep.demands[state.owner[: state.n]]
        )
        if not keep.all():
            state.compact(keep)
        n = state.n
        owner = state.owner[:n]
        order = np.argsort(self.slot_block[owner], kind="stable")
        owner = owner[order]
        pid = state.pid[:n][order]
        flow = state.flow[:n][order]
        bounds = np.searchsorted(
            self.slot_block[owner], np.arange(self.blocks + 1)
        ).tolist()
        slot_start = np.searchsorted(
            self.slot_block, np.arange(self.blocks)
        ).tolist()
        # A cap of one round never certified: report a bound of 0.
        lower = np.where(np.isfinite(lower), lower, 0.0)
        gap = (f - lower) / np.maximum(np.abs(f), 1e-30)
        per_block = loads.reshape(self.blocks, -1)
        registry = self.solver._registry
        out = []
        for b, commodities in enumerate(blocks):
            lo, hi = bounds[b], bounds[b + 1]
            arrays = ArrayPathFlows(
                registry=registry,
                path_ids=pid[lo:hi],
                amounts=flow[lo:hi],
                owner_slots=owner[lo:hi] - slot_start[b],
                commodity_ids=tuple(c.id for c in commodities),
            )
            objective = float(f[b])
            out.append(
                MCFSolution(
                    objective=objective,
                    lower_bound=min(float(lower[b]), objective),
                    link_loads=per_block[b],
                    path_flows=_LazyPathFlows(arrays),
                    relative_gap=max(float(gap[b]), 0.0),
                    iterations=int(iterations[b]),
                    arrays=arrays,
                )
            )
        return out


def _same_background(
    previous: np.ndarray | None, current: np.ndarray | None
) -> bool:
    if previous is None or current is None:
        return previous is None and current is None
    return np.array_equal(previous, current)


class RelaxationSession:
    """Persistent F-MCF state across consecutive related solves.

    Random-Schedule's interval sweep solves a sequence of instances whose
    commodity sets overlap heavily.  A session keeps the solver's path
    registry, CSR scratch and the flat flow rows alive between calls and
    applies the commodity-set *diff* per interval — departing commodities
    drop their rows, persisting ones rescale to their new demand in one
    vectorized multiply, and only entering commodities pay an
    all-or-nothing seed — then runs the solver's one Frank–Wolfe loop
    (one block) on the carried rows.  A solve with nothing carried is
    exactly :meth:`FrankWolfeSolver.solve`.
    """

    def __init__(self, solver: FrankWolfeSolver) -> None:
        if not isinstance(solver, FrankWolfeSolver):
            raise ValidationError(
                "RelaxationSession requires the array-native FrankWolfeSolver"
            )
        self._solver = solver
        self._state: _FlowState | None = None
        self._ids: list[int | str] = []
        self._last_background: np.ndarray | None = None
        # Path pool: every distinct path that ever carried flow in this
        # session, keyed by its endpoint pair.  Pool candidates are
        # re-priced (a gather + reduceat, no graph search) when the
        # background shifts, so the warm start can re-discover a known
        # detour without paying a shortest-path batch for it.  A path id
        # fixes its endpoints, so one global seen-bitmap (indexed by pid)
        # dedupes updates.
        self._pool: dict[tuple[str, str], list[int]] = {}
        self._pool_seen: np.ndarray = np.zeros(0, dtype=bool)

    @property
    def solver(self) -> FrankWolfeSolver:
        return self._solver

    def reset(self) -> None:
        """Forget the carried state (the next solve is cold)."""
        self._state = None
        self._ids = []
        self._last_background = None

    def solve(
        self,
        commodities: Sequence[Commodity],
        background: np.ndarray | None = None,
    ) -> MCFSolution:
        """Solve one instance, warm-started from the previous call.

        ``background`` fixes additional per-edge loads for this solve
        (see :meth:`FrankWolfeSolver.solve`); it is not carried across
        calls — each solve supplies its own.

        If the solve raises (e.g. an entering commodity has no route),
        the session resets: the carried state was already remapped to
        the new commodity slots, so continuing from it against the old
        id list would mis-attribute flows.  The next call is cold.
        """
        _validate_commodities(commodities)
        try:
            return self._solve(commodities, background)
        except BaseException:
            self.reset()
            raise

    def _solve(
        self,
        commodities: Sequence[Commodity],
        background: np.ndarray | None,
    ) -> MCFSolution:
        solver = self._solver
        ids = [c.id for c in commodities]
        k = len(ids)
        state = self._state
        if state is None:
            state = _FlowState(solver._registry)
        else:
            new_slot = {cid: i for i, cid in enumerate(ids)}
            remap = np.array(
                [new_slot.get(cid, -1) for cid in self._ids], dtype=np.int64
            )
            state.compact(remap[state.owner[: state.n]] >= 0, new_owner=remap)
        run = _StackedRun(
            solver, list(commodities), np.zeros(k, dtype=np.int64), 1,
            np.ones(1), state,
        )
        prep = run.prep
        totals = np.bincount(
            state.owner[: state.n], weights=state.flow[: state.n], minlength=k
        )
        persisting = totals > 0.0
        scale = np.ones(k)
        scale[persisting] = prep.demands[persisting] / totals[persisting]
        state.flow[: state.n] *= scale[state.owner[: state.n]]
        fresh = np.flatnonzero(~persisting)

        solver._set_background(background)
        resolved = solver._background
        shifted = not _same_background(self._last_background, resolved)
        self._last_background = None if resolved is None else resolved.copy()
        try:
            if persisting.any():
                # Entering commodities take the all-or-nothing step at
                # the carried loads; an empty row set is seeded by the
                # run itself, exactly as a cold FrankWolfeSolver.solve.
                if fresh.size:
                    run.seed(fresh)
                if shifted:
                    # A background shift (the per-interval profile sweep)
                    # moves the optimum mostly by reallocating flow among
                    # paths already in hand — plus the occasional detour
                    # the session has seen before.  Re-pricing the path
                    # pool and running a corrective sweep *before* the
                    # first dual certification usually brings the
                    # carried point back inside tolerance, so the first
                    # shortest-path batch certifies instead of opening a
                    # full Frank-Wolfe iteration.  The round loop's
                    # certification stays exact either way.
                    loads = state.loads(solver._topology.num_edges)
                    weights = solver._cost.derivative(solver._point(loads))
                    self._price_pool(state, prep, fresh.tolist(), weights)
                    run.sweeps(
                        loads, run.objectives(loads), np.full(1, -np.inf),
                        np.ones(1, dtype=bool),
                    )
            solution = run.solve([commodities])[0]
        finally:
            solver._background = None
        self._state = state
        self._ids = ids
        self._update_pool(state, prep)
        return solution

    def _price_pool(
        self,
        state: _FlowState,
        prep: _Prep,
        fresh: list[int],
        weights: np.ndarray,
    ) -> None:
        """Inject each commodity's cheapest pooled path as a zero-flow atom.

        Candidates are priced at the current marginal weights with one
        gather + ``reduceat``; a path strictly cheaper than the
        commodity's best active atom enters with zero flow, where the
        following pairwise sweep can drain mass into it.  Fresh slots
        were just seeded with their true shortest path, so only
        persisting commodities are priced.
        """
        pool = self._pool
        if not pool or state.n == 0:
            return
        k = prep.demands.size
        best = np.full(k, np.inf)
        np.minimum.at(best, state.owner[: state.n], state.path_costs(weights))
        skip = set(fresh)
        owners: list[int] = []
        cand_pids: list[int] = []
        counts: list[int] = []
        for slot in range(k):
            if slot in skip:
                continue
            pids = pool.get((prep.srcs[slot], prep.dsts[slot]))
            if not pids:
                continue
            owners.append(slot)
            cand_pids.extend(pids)
            counts.append(len(pids))
        if not owners:
            return
        pid_arr = np.array(cand_pids, dtype=np.int64)
        flat, lens, starts = state.registry.gather(pid_arr)
        kn = kernels.active()
        if kn is not None:
            costs = np.empty(pid_arr.size)
            kn.row_costs(flat, starts, lens, weights, costs)
        else:
            costs = np.add.reduceat(weights[flat], starts)
        counts_arr = np.array(counts, dtype=np.int64)
        gstarts = np.concatenate(([0], np.cumsum(counts_arr)[:-1]))
        seg_min = np.minimum.reduceat(costs, gstarts)
        owners_arr = np.array(owners, dtype=np.int64)
        improve = seg_min < best[owners_arr] * (1.0 - 1e-9)
        if not improve.any():
            return
        group_ids = np.repeat(np.arange(owners_arr.size), counts_arr)
        is_min = costs == seg_min[group_ids]
        idx_hit = np.flatnonzero(is_min)
        uniq, first = np.unique(group_ids[idx_hit], return_index=True)
        sel = idx_hit[first]
        keep = improve[uniq]
        inj_owner = owners_arr[uniq[keep]]
        inj_pid = pid_arr[sel[keep]]
        state.add_batch(inj_owner, inj_pid, np.zeros(inj_owner.size))

    def _update_pool(self, state: _FlowState, prep: _Prep) -> None:
        """Fold this solve's newly-seen paths into the endpoint pool."""
        n = state.n
        if n == 0:
            return
        pids = state.pid[:n]
        seen = self._pool_seen
        limit = int(pids.max()) + 1 if n else 0
        if seen.size < limit:
            grown = np.zeros(max(limit, 2 * seen.size), dtype=bool)
            grown[: seen.size] = seen
            self._pool_seen = seen = grown
        new_rows = np.flatnonzero(~seen[pids])
        if new_rows.size == 0:
            return
        seen[pids[new_rows]] = True
        pool = self._pool
        srcs, dsts = prep.srcs, prep.dsts
        for row in new_rows.tolist():
            slot = int(state.owner[row])
            key = (srcs[slot], dsts[slot])
            entry = pool.get(key)
            if entry is None:
                pool[key] = [int(pids[row])]
            else:
                entry.append(int(pids[row]))


def _polynomial_steps(
    base: np.ndarray, d: np.ndarray, degree: int
) -> np.ndarray:
    """Exact line-search steps for a pure power-law cost ``mu * x**alpha``,
    one per row of ``(blocks, edges)`` arrays.

    Along ``x + gamma d`` the directional derivative is a degree
    ``alpha - 1`` polynomial in ``gamma``; its coefficients (up to the
    irrelevant positive factor ``mu * alpha``) are binomial-weighted
    moment sums ``M_k = sum d**(k+1) * x**(alpha-1-k)``.  One pass builds
    every row's moments; the roots are then bracketed on the scalar
    polynomials, all rows in lock step — no repeated vector derivative
    evaluations.
    """
    if degree == 2:
        c0 = (d * base).sum(axis=1)
        c1 = (d * d).sum(axis=1)
        return np.where(
            c0 >= 0.0,
            0.0,
            np.where(c0 + c1 <= 0.0, 1.0, -c0 / np.maximum(c1, 1e-300)),
        )
    n = degree - 1
    x_pows = [np.ones_like(base)]
    for _ in range(n):
        x_pows.append(x_pows[-1] * base)
    coeffs = []
    d_pow = d
    for k in range(degree):
        coeffs.append(comb(n, k) * (d_pow * x_pows[n - k]).sum(axis=1))
        if k < n:
            d_pow = d_pow * d
    lo = np.zeros(base.shape[0])
    hi = np.ones(base.shape[0])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        slope = np.zeros_like(mid)
        for c in reversed(coeffs):
            slope = slope * mid + c
        below = slope < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(
        coeffs[0] >= 0.0,
        0.0,
        np.where(sum(coeffs) <= 0.0, 1.0, 0.5 * (lo + hi)),
    )


def _validate_commodities(commodities: Sequence[Commodity]) -> None:
    if not commodities:
        raise ValidationError("solve requires at least one commodity")
    ids = [c.id for c in commodities]
    if len(set(ids)) != len(ids):
        raise ValidationError("commodity ids must be unique")


class FrankWolfeSolverReference:
    """Dict-of-paths Frank–Wolfe solver, retained as the pinning oracle.

    This is the pre-array implementation of :class:`FrankWolfeSolver`,
    kept verbatim (repo convention for every fast path — see DESIGN.md
    Sections 7–9).  ``tests/test_fw_engine.py`` pins the array engine to
    it; ``benchmarks/bench_mcflow.py`` measures the gap.
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
