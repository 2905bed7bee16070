"""Array-native routing core: marginal-cost router and incremental load
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

* :class:`FastRouter` — a bidirectional early-terminating Dijkstra over
  the CSR adjacency lists, given each route's weight vector; it keeps
  no routing state between calls, so a route is a function of its
  arguments;
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


# ----------------------------------------------------------------------
# Marginal-cost router: bidirectional CSR Dijkstra.
# ----------------------------------------------------------------------
class FastRouter:
    """Marginal-cost router over one topology.

    :meth:`route` runs one *bidirectional* early-terminating Dijkstra over
    the topology's CSR adjacency lists under the weight vector it is
    given — meeting in the middle settles the union of two half-radius
    balls instead of the full graph (~40 us on fat_tree(8) versus
    ~500 us for networkx).  The router owns only the search's scratch
    buffers, so a route depends on nothing but its arguments.

    Weights must be strictly positive (enforced): positivity is what
    makes the meet-in-the-middle concatenation loop-free.
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

    def __reduce__(self):
        # The scratch buffers are rebuilt, so a router pickles as its
        # topology alone.
        return FastRouter, (self._topology,)

    @property
    def topology(self) -> Topology:
        return self._topology

    def route(
        self, src: str, dst: str, weights: np.ndarray
    ) -> tuple[Path, np.ndarray]:
        """Cheapest ``src -> dst`` path under ``weights``, as
        ``(node path, edge-id array)``.

        ``weights`` holds one strictly positive float64 weight per edge
        id; the router reads it during the call and keeps no reference.
        """
        src_id, dst_id = _check_endpoints(self._topology, src, dst)
        weights = np.ascontiguousarray(weights, dtype=float)
        if weights.shape != (self._topology.num_edges,):
            raise ValidationError(
                f"weights must have shape ({self._topology.num_edges},), "
                f"got {weights.shape}"
            )
        if not weights.min(initial=inf) > 0.0:
            raise ValidationError(
                "weights must be strictly positive "
                "(price them with repro.routing.costs.marginal_price)"
            )
        meet = self._search(src_id, dst_id, memoryview(weights))
        if meet is None:
            raise TopologyError(f"no path between {src!r} and {dst!r}")
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
        return path, np.array(edge_list, dtype=np.int64)

    def _search(
        self, src_id: int, dst_id: int, weights: memoryview
    ) -> tuple[int, int, int] | None:
        """Bidirectional Dijkstra; returns the meeting arc
        ``(u, v, edge_id)`` of a cheapest path, or ``None`` when the pair
        is disconnected.

        Standard meet-in-the-middle: alternate the side with the smaller
        frontier top; maintain ``mu``, the best crossing cost seen, and
        stop once ``top_f + top_b >= mu``.  Degree-1 nodes other than the
        endpoints are skipped (they cannot be interior to a simple path),
        and relaxations at ``>= mu`` are cut.
        """
        adj = self._adj
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
        mu = inf
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
        counts = [len(c[2]) for c in pending]
        self._merge(
            np.repeat([c[0] for c in pending], counts),
            np.concatenate([c[2] for c in pending]),
            np.repeat([c[1] for c in pending], counts),
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
