"""Array-native routing core: cached fast router and incremental load
accounting.

Finding the cheapest path under the power envelope's per-edge marginal
cost is the inner loop of every online consumer in this library — the
online density scheduler (:mod:`repro.core.online`), the greedy
marginal-routing baseline (:mod:`repro.core.baselines`), the
trace-replay policies (:mod:`repro.traces.policies`) and fault repair
(:mod:`repro.traces.repair`).  Routing through
:func:`networkx.dijkstra_path` with a per-edge Python weight callback
costs ~0.5 ms per flow on a k=8 fat-tree; rebuilding the committed-load
vector from per-edge :class:`~repro.scheduling.timeline.PiecewiseConstant`
profiles adds O(E x segments) more.  This module replaces both with
integer-array machinery on the topology's cached CSR adjacency
(:attr:`repro.topology.base.Topology.csr_adjacency`):

* :class:`FastRouter` — a stateful router holding the marginal vector, a
  ``(src, dst)`` candidate-path cache with staleness stamps, and a
  bidirectional early-terminating Dijkstra over the CSR adjacency whose
  pruning bound is seeded with the cached candidate's current cost
  (~40 us per miss on fat_tree(8));
* :class:`LoadLedger` — a deadline-sorted commit ledger that maintains
  the per-edge average-load vector incrementally: a commit touches only
  its own path edges, a bulk seed loads the load earlier windows left
  live, and the span-window correction for each arriving flow is one
  vectorized pass over the commits ending inside its window.

The networkx implementation survives as the test oracle
``marginal_route_reference`` in ``tests/oracles/paths.py``; the property
suite in ``tests/test_fastpath.py`` pins :meth:`FastRouter.route` to it
at equal path cost.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf

import numpy as np

from repro.errors import TopologyError, ValidationError
from repro.topology.base import Topology

__all__ = ["FastRouter", "LoadLedger"]

Path = tuple[str, ...]


def _check_endpoints(topology: Topology, src: str, dst: str) -> tuple[int, int]:
    if src == dst:
        raise TopologyError("endpoints must differ")
    return topology.node_id(src), topology.node_id(dst)


def _check_marginal(topology: Topology, marginal: np.ndarray) -> None:
    if len(marginal) != topology.num_edges:
        raise ValidationError(
            f"marginal must have {topology.num_edges} entries, "
            f"got {len(marginal)}"
        )


# ----------------------------------------------------------------------
# Stateful fast router: bidirectional CSR Dijkstra + candidate-path cache.
# ----------------------------------------------------------------------
class FastRouter:
    """Stateful marginal-cost router over one topology.

    Owns the marginal-cost vector (updated wholesale via
    :meth:`set_marginal` or edge-wise via :meth:`bump_edges`) and a
    ``(src, dst)`` candidate-path cache.  Each entry snapshots the
    marginal of its own path edges; the entry is provably still a
    cheapest path iff

    * no edge weight anywhere has decreased since the entry was stored
      (every alternative path can then only have gotten costlier than the
      cost that lost to this entry), and
    * the entry's own path edges still carry their snapshot values
      (off-path increases only make the cached path look better).

    The first condition is one integer comparison against a global
    "last decrease" stamp, the second an O(path) vector compare — so a
    hit skips the search entirely.  Otherwise one *bidirectional*
    early-terminating Dijkstra runs over the topology's CSR adjacency
    lists — meeting in the middle settles the union of two half-radius
    balls instead of the full graph (~40 us on fat_tree(8) versus ~500 us
    for networkx) — and when a cache entry exists its current path cost
    seeds the search's pruning bound ``mu``: every relaxation that cannot
    beat the candidate is cut, and if nothing beats it the search has
    *proved* the cached path still cheapest and returns it without
    reconstruction.

    Weights must be strictly positive (enforced): positivity is what
    makes the meet-in-the-middle concatenation loop-free and the
    candidate-bound pruning exact.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        n = len(topology.nodes)
        # Per-node (neighbor, edge_id) pair tuples: ~30% faster to iterate
        # in the search's inner loop than flat indptr-sliced indexing.
        ip, nb, ei = topology.csr_adjacency_lists
        self._adj = tuple(
            tuple(zip(nb[ip[u] : ip[u + 1]], ei[ip[u] : ip[u + 1]]))
            for u in range(n)
        )
        self._leaf = topology.leaf_mask
        # Forward/backward distance, parent node, parent edge, seen-stamp
        # and settled-stamp buffers, reset in O(1) per query by bumping
        # the epoch.
        self._df = [0.0] * n
        self._db = [0.0] * n
        self._pf = [-1] * n
        self._pb = [-1] * n
        self._pef = [-1] * n
        self._peb = [-1] * n
        self._sf = [0] * n
        self._sb = [0] * n
        self._done_f = [0] * n
        self._done_b = [0] * n
        self._epoch = 0
        self._marginal: np.ndarray | None = None
        self._weights: list[float] | None = None
        self._tick = 0
        self._floor_stamp = 0  # last tick at which any weight decreased
        self._cache: dict[
            tuple[str, str], tuple[Path, np.ndarray, np.ndarray, int]
        ] = {}
        self.hits = 0  # cache hits: stamp/snapshot check alone sufficed
        self.proofs = 0  # pruned searches that re-proved the cached path
        self.misses = 0  # searches that built a fresh path

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def marginal(self) -> np.ndarray:
        """The current marginal vector (do not mutate)."""
        if self._marginal is None:
            raise ValidationError("set_marginal has not been called yet")
        return self._marginal

    def set_marginal(
        self, marginal: np.ndarray, *, decreased: bool | None = None
    ) -> None:
        """Replace the whole marginal vector.

        One vectorized decrease check against the previous vector keeps
        cache entries whose own path edges did not change valid; callers
        that know the answer (or accept conservative invalidation) can
        pass ``decreased`` explicitly to skip the scan — ``True`` is
        always safe, ``False`` asserts no entry dropped.  The router
        takes ownership of ``marginal``: the array is kept without
        copying (when already contiguous float64) and :meth:`bump_edges`
        mutates it in place, so the caller must neither mutate nor reuse
        it afterwards.
        """
        marginal = np.ascontiguousarray(marginal, dtype=float)
        _check_marginal(self._topology, marginal)
        if not marginal.min(initial=np.inf) > 0.0:
            raise ValidationError(
                "marginal weights must be strictly positive "
                "(clamp with np.maximum(..., 1e-12) upstream)"
            )
        self._tick += 1
        if decreased is None:
            decreased = self._marginal is None or bool(
                np.any(marginal < self._marginal)
            )
        if decreased:
            self._floor_stamp = self._tick
        self._marginal = marginal
        self._weights = marginal.tolist()

    def bump_edges(self, edge_ids, values) -> None:
        """Update the marginal on just-touched edges, in O(len(edge_ids)).

        The incremental sibling of :meth:`set_marginal` for consumers that
        change only the edges a commit landed on.
        """
        if self._marginal is None or self._weights is None:
            raise ValidationError("set_marginal must seed the vector first")
        self._tick += 1
        marginal = self._marginal
        weights = self._weights
        for eid, value in zip(edge_ids, values):
            eid = int(eid)
            value = float(value)
            if not value > 0.0:
                raise ValidationError(
                    f"marginal weight must be strictly positive, got {value}"
                )
            old = marginal[eid]
            if value == old:
                continue
            marginal[eid] = value
            weights[eid] = value
            if value < old:
                self._floor_stamp = self._tick

    def route(self, src: str, dst: str) -> tuple[Path, np.ndarray]:
        """Cheapest path under the current marginal, as
        ``(node path, edge-id array)``.

        Serves from the candidate-path cache when the entry is provably
        still cheapest (see class docstring); otherwise runs one
        candidate-bounded bidirectional Dijkstra and refreshes the entry.
        """
        src_id, dst_id = _check_endpoints(self._topology, src, dst)
        if self._marginal is None:
            raise ValidationError("set_marginal must be called before route")
        key = (src, dst)
        entry = self._cache.get(key)
        bound = inf
        if entry is not None:
            path, eids, snapshot, stamp = entry
            if stamp >= self._floor_stamp and (
                stamp >= self._tick
                or np.array_equal(self._marginal[eids], snapshot)
            ):
                self.hits += 1
                return path, eids
            # Stale entry: its current cost still upper-bounds the
            # optimum, pruning the search below.
            bound = float(self._marginal[eids].sum())
        meet = self._search(src_id, dst_id, bound)
        if meet is None:
            if entry is not None:
                # Nothing beat the candidate: it is re-proven cheapest.
                path, eids, _snapshot, _stamp = entry
                self.proofs += 1
                self._cache[key] = (
                    path, eids, self._marginal[eids], self._tick,
                )
                return path, eids
            raise TopologyError(f"no path between {src!r} and {dst!r}")
        self.misses += 1
        u, v, cross_eid = meet
        ids = [u]
        edge_list = []
        pf, pef = self._pf, self._pef
        while ids[-1] != src_id:
            edge_list.append(pef[ids[-1]])
            ids.append(pf[ids[-1]])
        ids.reverse()
        edge_list.reverse()
        ids.append(v)
        edge_list.append(cross_eid)
        pb, peb = self._pb, self._peb
        while ids[-1] != dst_id:
            edge_list.append(peb[ids[-1]])
            ids.append(pb[ids[-1]])
        nodes = self._topology.nodes
        path = tuple(nodes[i] for i in ids)
        eids = np.array(edge_list, dtype=np.int64)
        self._cache[key] = (path, eids, self._marginal[eids], self._tick)
        return path, eids

    def _search(
        self, src_id: int, dst_id: int, bound: float
    ) -> tuple[int, int, int] | None:
        """Bidirectional Dijkstra; returns the meeting arc
        ``(u, v, edge_id)`` of a path strictly cheaper than ``bound``, or
        ``None`` when no such path exists (for ``bound=inf``: the pair is
        disconnected).

        Standard meet-in-the-middle: alternate the side with the smaller
        frontier top; maintain ``mu``, the best crossing cost seen, and
        stop once ``top_f + top_b >= mu``.  Degree-1 nodes other than the
        endpoints are skipped (they cannot be interior to a simple path),
        and relaxations at ``>= mu`` are cut — with a finite ``bound``
        this prunes the search down to the region that could still beat
        the cached candidate.
        """
        adj = self._adj
        weights = self._weights
        leaf = self._leaf
        df, db = self._df, self._db
        pf, pb = self._pf, self._pb
        pef, peb = self._pef, self._peb
        sf, sb = self._sf, self._sb
        done_f, done_b = self._done_f, self._done_b
        self._epoch += 1
        epoch = self._epoch
        push, pop = heappush, heappop

        df[src_id] = 0.0
        sf[src_id] = epoch
        pf[src_id] = -1
        db[dst_id] = 0.0
        sb[dst_id] = epoch
        pb[dst_id] = -1
        heap_f = [(0.0, src_id)]
        heap_b = [(0.0, dst_id)]
        top_f = top_b = 0.0
        mu = bound
        meet: tuple[int, int, int] | None = None

        while heap_f and heap_b:
            if top_f + top_b >= mu:
                break
            if top_f <= top_b:
                d, u = pop(heap_f)
                if d > df[u] or done_f[u] == epoch:
                    top_f = heap_f[0][0] if heap_f else inf
                    continue
                done_f[u] = epoch
                if u == dst_id:
                    break
                for v, eid in adj[u]:
                    if leaf[v] and v != dst_id:
                        continue
                    nd = d + weights[eid]
                    if nd >= mu:
                        continue
                    if sf[v] != epoch:
                        sf[v] = epoch
                    elif nd >= df[v]:
                        continue
                    df[v] = nd
                    pf[v] = u
                    pef[v] = eid
                    push(heap_f, (nd, v))
                    if sb[v] == epoch:
                        crossing = nd + db[v]
                        if crossing < mu:
                            mu = crossing
                            meet = (u, v, eid)
                top_f = heap_f[0][0] if heap_f else inf
            else:
                d, u = pop(heap_b)
                if d > db[u] or done_b[u] == epoch:
                    top_b = heap_b[0][0] if heap_b else inf
                    continue
                done_b[u] = epoch
                if u == src_id:
                    break
                for v, eid in adj[u]:
                    if leaf[v] and v != src_id:
                        continue
                    nd = d + weights[eid]
                    if nd >= mu:
                        continue
                    if sb[v] != epoch:
                        sb[v] = epoch
                    elif nd >= db[v]:
                        continue
                    db[v] = nd
                    pb[v] = u
                    peb[v] = eid
                    push(heap_b, (nd, v))
                    if sf[v] == epoch:
                        crossing = nd + df[v]
                        if crossing < mu:
                            mu = crossing
                            meet = (v, u, eid)
                top_b = heap_b[0][0] if heap_b else inf
        return meet


# ----------------------------------------------------------------------
# Incremental average-load accounting.
# ----------------------------------------------------------------------
class LoadLedger:
    """Per-edge average committed load, maintained incrementally for
    release-ordered arrivals.

    After any sequence of :meth:`commit` calls, :meth:`loads` returns for
    every edge

    ``sum_j rate_j * |[start_j, end_j) ∩ [a, b)| / (b - a)``

    — exactly the number a from-scratch rebuild via
    :meth:`~repro.scheduling.timeline.PiecewiseConstant.window_integral`
    produces (pinned by the property suite) — but each query costs
    O(expired + ending-inside-window) instead of O(E x commits).

    Invariant making that possible: query starts are nondecreasing and no
    commit begins before the latest query start (both hold automatically
    when flows are processed in release order and committed at their
    release).  Then every live commit covers the window's left edge, so a
    commit ending at or beyond ``b`` contributes its full rate (tracked in
    the ``active`` per-edge vector a commit touches only along its path),
    a commit ending inside ``(a, b)`` needs the span-window correction
    ``rate * (b - end_j) / (b - a)`` (one vectorized
    :func:`numpy.bincount` over the deadline-sorted prefix), and a commit
    ending at or before ``a`` is expired from ``active`` exactly once.

    Replay policies :meth:`seed` the ledger with the pieces earlier
    windows left live before their first query (DESIGN.md §20).  Those
    pieces began before the window did, so they cover every query's left
    edge like the window's own commits, and :meth:`loads` returns the
    committed load and the window's own in the same pass.

    Representation detail: commits land in a small *pending* list first
    and are merged into the deadline-sorted arrays in sorted blocks every
    ``_MERGE_AT`` commits (one :func:`numpy.searchsorted` merge), so a
    commit costs O(path) amortized instead of an O(ledger) array splice.
    """

    _MERGE_AT = 8

    def __init__(self, topology: Topology) -> None:
        self._active = np.zeros(topology.num_edges)
        self._num_edges = topology.num_edges
        self._ends = np.empty(0)
        self._eids = np.empty(0, dtype=np.int64)
        self._rates = np.empty(0)
        #: Recent commits not yet merged: (end, rate, edge-id array,
        #: edge-id list — scalar indexing beats fancy indexing here).
        self._pending: list[tuple[float, float, np.ndarray, list[int]]] = []
        self._clock = -inf

    def _merge_pending(self) -> None:
        pending = self._pending
        pending.sort(key=lambda c: c[0])
        self._merge(
            np.concatenate([np.full(len(c[2]), c[0]) for c in pending]),
            np.concatenate([c[2] for c in pending]),
            np.concatenate([np.full(len(c[2]), c[1]) for c in pending]),
        )
        pending.clear()

    def _merge(
        self, block_ends: np.ndarray, block_eids: np.ndarray,
        block_rates: np.ndarray,
    ) -> None:
        """Merge one end-sorted block into the deadline-sorted arrays
        (one :func:`numpy.searchsorted` placement)."""
        pos = np.searchsorted(self._ends, block_ends)
        n, k = len(self._ends), len(block_ends)
        target = pos + np.arange(k)
        keep = np.ones(n + k, dtype=bool)
        keep[target] = False
        ends = np.empty(n + k)
        eids = np.empty(n + k, dtype=np.int64)
        rates = np.empty(n + k)
        ends[target] = block_ends
        eids[target] = block_eids
        rates[target] = block_rates
        ends[keep] = self._ends
        eids[keep] = self._eids
        rates[keep] = self._rates
        self._ends, self._eids, self._rates = ends, eids, rates

    def seed(self, starts, ends, rates, edge_ids) -> None:
        """Commit a batch of single-edge pieces: piece ``j`` reserves
        ``rates[j]`` on edge ``edge_ids[j]`` over ``[starts[j], ends[j])``.

        The bulk form of :meth:`commit`, under its rules: no piece may
        begin before the latest query start, and the clock advances to
        the latest piece start, so a later query opening before it
        raises.  Replay policies seed a window's ledger with the pieces
        earlier windows left live (:attr:`~repro.traces.policies.
        WindowContext.pieces`).  One argsort by end and one merge into
        the deadline-sorted arrays.
        """
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        rates = np.asarray(rates, dtype=float)
        eids = np.asarray(edge_ids, dtype=np.int64)
        if not starts.shape == ends.shape == rates.shape == eids.shape:
            raise ValidationError(
                "seed columns must have equal lengths, got "
                f"{len(starts)}, {len(ends)}, {len(rates)}, {len(eids)}"
            )
        if not len(starts):
            return
        if not np.all(ends > starts):
            raise ValidationError("seeded pieces must have positive length")
        if starts.min() < self._clock:
            raise ValidationError(
                f"seeded piece at {starts.min()} precedes the latest "
                f"query start {self._clock}; the ledger requires release "
                "order"
            )
        self._active += np.bincount(
            eids, weights=rates, minlength=self._num_edges
        )
        self._clock = float(starts.max())
        order = np.argsort(ends, kind="stable")
        self._merge(ends[order], eids[order], rates[order])

    def commit(self, edge_ids, start: float, end: float, rate: float) -> None:
        """Reserve ``rate`` on every edge of ``edge_ids`` over
        ``[start, end)``."""
        if not end > start:
            raise ValidationError(
                f"commit window [{start}, {end}) must have positive length"
            )
        if start < self._clock:
            raise ValidationError(
                f"commit at {start} precedes the latest query start "
                f"{self._clock}; the ledger requires release order"
            )
        eids = np.asarray(edge_ids, dtype=np.int64)
        self._active[eids] += rate
        # Advance the clock to this commit's start: a later query opening
        # before it would violate the covers-the-left-edge invariant the
        # correction math relies on, and must raise rather than return a
        # silently wrong vector.
        self._clock = start
        self._pending.append((end, rate, eids, eids.tolist()))
        if len(self._pending) >= self._MERGE_AT:
            self._merge_pending()

    def loads(self, start: float, end: float) -> np.ndarray:
        """Average committed load per edge over ``[start, end)``.

        ``start`` values must be nondecreasing across calls.
        """
        if not end > start:
            raise ValidationError(
                f"query window [{start}, {end}) must have positive length"
            )
        if start < self._clock:
            raise ValidationError(
                f"query at {start} precedes earlier query start "
                f"{self._clock}; the ledger requires release order"
            )
        self._clock = start
        expired = int(np.searchsorted(self._ends, start, side="right"))
        if expired:
            self._active -= np.bincount(
                self._eids[:expired],
                weights=self._rates[:expired],
                minlength=self._num_edges,
            )
            self._ends = self._ends[expired:]
            self._eids = self._eids[expired:]
            self._rates = self._rates[expired:]
        loads = self._active.copy()
        span = end - start
        partial = int(np.searchsorted(self._ends, end, side="left"))
        if partial:
            correction = np.bincount(
                self._eids[:partial],
                weights=self._rates[:partial] * (end - self._ends[:partial]),
                minlength=self._num_edges,
            )
            loads -= correction / span
        pending = self._pending
        if pending:
            survivors = []
            for c in pending:
                c_end, c_rate, c_eids, c_list = c
                if c_end <= start:  # expired before ever being merged
                    self._active[c_eids] -= c_rate
                    loads[c_eids] -= c_rate
                else:
                    survivors.append(c)
                    if c_end < end:
                        delta = c_rate * (end - c_end) / span
                        for eid in c_list:
                            loads[eid] -= delta
            if len(survivors) != len(pending):
                self._pending = survivors
        return loads
