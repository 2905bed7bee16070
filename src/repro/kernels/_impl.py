"""Kernel bodies of the compiled tier (DESIGN.md Section 15).

Every function in this module is written in the nopython subset that
:mod:`numba` compiles — flat ndarray arguments, scalar locals, manual
binary heaps, no Python containers — and doubles as its own fallback:
the registry in :mod:`repro.kernels` hands out ``numba.njit``-compiled
versions when the toolchain is present (``compiled`` backend) and these
plain-Python functions verbatim under the ``interpreted`` backend, so
the pinning suites can compare the exact code path bit for bit without
numba installed.

Mirroring discipline: each kernel reproduces the arithmetic of its
array-engine sibling *operation for operation* where the result is
order-sensitive — same heap tie-breaks as ``heapq`` tuples, same
``_EPS`` guards, same sequential scatter order as ``np.bincount`` — so
shortest paths, trees and EDF schedules are bit-identical to the
retained Python tier rather than merely close.  The one caveat is
plain summation: the pricing kernels accumulate rows left to right,
while ``np.add.reduceat`` uses a blocked (SIMD-dependent) order, so
row cost sums may differ from the numpy tier in the last ulp — the
pinning suite compares them against a sequential replica exactly, and
solver-level agreement is certified by dual bounds.  Outputs land in
caller-allocated arrays; error states return as status codes the
Python wrappers re-raise with the retained engines' exact messages.
"""

from __future__ import annotations

import numpy as np

#: Kernel names exported to the backend registry (order = warm-up order).
KERNEL_NAMES = (
    "spt_tree",
    "spt_repair",
    "edf_sweep",
    "row_costs",
    "pairwise_delta",
)


# ----------------------------------------------------------------------
# Single-source shortest-path trees for the Frank-Wolfe batch.
# ----------------------------------------------------------------------
def spt_tree(indptr, indices, warc, src, dist, pred, parc, heap_key, heap_node):
    """Full Dijkstra from ``src`` over per-arc weights ``warc``.

    Fills ``dist`` (np.inf where unreachable), ``pred`` (parent node,
    -1 at the root and off-tree) and ``parc`` (the arc index realizing
    each parent edge — what lets :func:`spt_repair` re-weigh the tree
    without lookups).  Plain lazy-deletion heap Dijkstra; ties settle
    by (distance, node id).

    Parents are then *canonicalized*: each node's parent becomes the
    first arc in CSR scan order achieving exact ``dist[u] + warc[a] ==
    dist[v]``.  That makes the tree a pure function of the weight
    vector — :func:`spt_repair` applies the same pass, so a repaired
    tree is indistinguishable from a cold recompute even on equal-cost
    ties (what keeps warm sessions bit-identical to forced-cold
    solves).  Requires strictly positive weights (the callers floor at
    1e-12), which also makes the canonical parent graph acyclic.
    """
    n = dist.size
    for v in range(n):
        dist[v] = np.inf
        pred[v] = -1
        parc[v] = -1
    dist[src] = 0.0
    heap_key[0] = 0.0
    heap_node[0] = src
    hn = 1
    while hn > 0:
        d = heap_key[0]
        u = heap_node[0]
        hn -= 1
        lk = heap_key[hn]
        ln = heap_node[hn]
        i = 0
        while True:
            c = 2 * i + 1
            if c >= hn:
                break
            r = c + 1
            if r < hn and (
                heap_key[r] < heap_key[c]
                or (heap_key[r] == heap_key[c] and heap_node[r] < heap_node[c])
            ):
                c = r
            if heap_key[c] < lk or (heap_key[c] == lk and heap_node[c] < ln):
                heap_key[i] = heap_key[c]
                heap_node[i] = heap_node[c]
                i = c
            else:
                break
        heap_key[i] = lk
        heap_node[i] = ln

        if d > dist[u]:
            continue
        for a in range(indptr[u], indptr[u + 1]):
            v = indices[a]
            nd = d + warc[a]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                parc[v] = a
                i = hn
                hn += 1
                while i > 0:
                    p = (i - 1) // 2
                    if heap_key[p] > nd or (
                        heap_key[p] == nd and heap_node[p] > v
                    ):
                        heap_key[i] = heap_key[p]
                        heap_node[i] = heap_node[p]
                        i = p
                    else:
                        break
                heap_key[i] = nd
                heap_node[i] = v
    # Canonical parents (see docstring): first arc in CSR scan order
    # with exact equality.
    for v in range(n):
        if v != src and dist[v] != np.inf:
            pred[v] = -2
    for u in range(n):
        du = dist[u]
        if du == np.inf:
            continue
        for a in range(indptr[u], indptr[u + 1]):
            v = indices[a]
            if pred[v] == -2 and du + warc[a] == dist[v]:
                pred[v] = u
                parc[v] = a


def spt_repair(
    indptr,
    indices,
    warc,
    src,
    dist,
    pred,
    parc,
    heap_key,
    heap_node,
    child_head,
    child_next,
    stack,
):
    """Incremental shortest-path-tree repair after a weight change.

    Given the previous tree (``pred``/``parc`` from :func:`spt_tree` or
    an earlier repair) and the *new* per-arc weights ``warc``:

    1. re-weigh the old tree top-down — ``dist[v] = dist[pred[v]] +
       warc[parc[v]]`` in tree order — which yields valid *upper
       bounds* (the old tree paths still exist);
    2. one arc scan seeds a heap with every node some arc can improve;
    3. Dijkstra-style label correction drains the heap.  All pushed
       keys dominate the pop front (weights are positive), so the pop
       order is monotone and every settled label is exact.

    When consecutive weight vectors are close — Frank–Wolfe iterations,
    the interval sweep's background shifts — step 3 touches only the
    cone whose shortest paths actually changed, replacing the O(full
    Dijkstra) per-source cost with O(arc scan + affected cone).  The
    final parent canonicalization pass (same as :func:`spt_tree`)
    makes the repaired tree — distances *and* parents — equal a cold
    recompute bit for bit (property-pinned in ``tests/test_kernels.
    py``), so warm sessions never diverge from cold solves on
    equal-cost ties.  Requires strictly positive weights.
    """
    n = dist.size
    # Children lists of the old tree (head/next linked lists).
    for v in range(n):
        child_head[v] = -1
    for v in range(n):
        p = pred[v]
        if p >= 0:
            child_next[v] = child_head[p]
            child_head[p] = v
    # Top-down re-weigh along the old tree.  Off-tree nodes were (and
    # stay) unreachable: positive finite weights never change
    # reachability, so their inf labels are already exact.
    dist[src] = 0.0
    top = 0
    stack[top] = src
    top += 1
    while top > 0:
        top -= 1
        u = stack[top]
        du = dist[u]
        c = child_head[u]
        while c >= 0:
            dist[c] = du + warc[parc[c]]
            stack[top] = c
            top += 1
            c = child_next[c]
    # Seed: one pass over the arcs collects every improvable label.
    hn = 0
    for u in range(n):
        du = dist[u]
        if du == np.inf:
            continue
        for a in range(indptr[u], indptr[u + 1]):
            v = indices[a]
            nd = du + warc[a]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                parc[v] = a
                i = hn
                hn += 1
                while i > 0:
                    p = (i - 1) // 2
                    if heap_key[p] > nd or (
                        heap_key[p] == nd and heap_node[p] > v
                    ):
                        heap_key[i] = heap_key[p]
                        heap_node[i] = heap_node[p]
                        i = p
                    else:
                        break
                heap_key[i] = nd
                heap_node[i] = v
    # Label correction over the affected cone.
    while hn > 0:
        d = heap_key[0]
        u = heap_node[0]
        hn -= 1
        lk = heap_key[hn]
        ln = heap_node[hn]
        i = 0
        while True:
            c = 2 * i + 1
            if c >= hn:
                break
            r = c + 1
            if r < hn and (
                heap_key[r] < heap_key[c]
                or (heap_key[r] == heap_key[c] and heap_node[r] < heap_node[c])
            ):
                c = r
            if heap_key[c] < lk or (heap_key[c] == lk and heap_node[c] < ln):
                heap_key[i] = heap_key[c]
                heap_node[i] = heap_node[c]
                i = c
            else:
                break
        heap_key[i] = lk
        heap_node[i] = ln

        if d > dist[u]:
            continue
        for a in range(indptr[u], indptr[u + 1]):
            v = indices[a]
            nd = d + warc[a]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                parc[v] = a
                i = hn
                hn += 1
                while i > 0:
                    p = (i - 1) // 2
                    if heap_key[p] > nd or (
                        heap_key[p] == nd and heap_node[p] > v
                    ):
                        heap_key[i] = heap_key[p]
                        heap_node[i] = heap_node[p]
                        i = p
                    else:
                        break
                heap_key[i] = nd
                heap_node[i] = v
    # Canonical parents (see docstring): first arc in CSR scan order
    # with exact equality.
    for v in range(n):
        if v != src and dist[v] != np.inf:
            pred[v] = -2
    for u in range(n):
        du = dist[u]
        if du == np.inf:
            continue
        for a in range(indptr[u], indptr[u + 1]):
            v = indices[a]
            if pred[v] == -2 and du + warc[a] == dist[v]:
                pred[v] = u
                parc[v] = a


# ----------------------------------------------------------------------
# EDF event sweep in available-time coordinates.
# ----------------------------------------------------------------------
def edf_sweep(
    rel_a,
    dl_a,
    deadlines,
    durations,
    bs,
    be,
    cum,
    ab,
    tol,
    eps,
    heap_key,
    heap_pos,
    run_pos,
    run_a0,
    run_a1,
    err,
):
    """The preemptive EDF sweep of ``edf_schedule_arrays``, flattened.

    Inputs are the admission-ordered available-time arrays the shared
    transform produces; outputs are the executed runs in available
    coordinates (back-mapped by the caller).  The ready heap holds
    ``(real deadline, position)`` pairs — admission order makes the
    position the exact equivalent of the Python engine's ``seq``
    tie-break, so pops match ``heapq`` bit for bit.

    ``err[0]`` returns the status: 0 ok, 1 missed deadline mid-run, 2
    finished past the deadline, 3 ran out of work (internal error);
    ``err[1:4]`` carry (position, real time, remaining work) for the
    wrapper's exact :class:`InfeasibleError` messages.  Returns the
    number of runs written.
    """
    n = rel_a.size
    remaining = durations.copy()
    hn = 0
    release_idx = 0
    finished = 0
    nruns = 0
    t = rel_a[0]
    next_rel = t
    err[0] = 0.0
    while finished < n:
        if next_rel <= t + eps:
            while release_idx < n and rel_a[release_idx] <= t + eps:
                key = deadlines[release_idx]
                pos = release_idx
                i = hn
                hn += 1
                while i > 0:
                    p = (i - 1) // 2
                    if heap_key[p] > key or (
                        heap_key[p] == key and heap_pos[p] > pos
                    ):
                        heap_key[i] = heap_key[p]
                        heap_pos[i] = heap_pos[p]
                        i = p
                    else:
                        break
                heap_key[i] = key
                heap_pos[i] = pos
                release_idx += 1
            if release_idx < n:
                next_rel = rel_a[release_idx]
            else:
                next_rel = np.inf

        if hn == 0:
            if next_rel == np.inf:
                err[0] = 3.0
                return nruns
            if next_rel > t:
                t = next_rel
            continue

        pos = heap_pos[0]
        left = remaining[pos]
        if t > dl_a[pos] - eps and left > tol:
            # Back-map t (side="right": a boundary coordinate the sweep
            # is *at* resolves to the block's end).
            lo = 0
            hi = ab.size
            while lo < hi:
                mid = (lo + hi) // 2
                if ab[mid] <= t:
                    lo = mid + 1
                else:
                    hi = mid
            missed_at = t + cum[lo]
            if missed_at > deadlines[pos] + tol:
                err[0] = 1.0
                err[1] = pos
                err[2] = missed_at
                err[3] = left
                return nruns

        run_end = t + left
        if run_end > next_rel:
            run_end = next_rel
        if nruns >= run_pos.size:
            # Caller's run buffer is full (float dust can split a run a
            # few extra times past the nominal 2n bound): report status
            # 4 so the wrapper retries with a doubled buffer.
            err[0] = 4.0
            return nruns
        run_pos[nruns] = pos
        run_a0[nruns] = t
        run_a1[nruns] = run_end
        nruns += 1
        left = left - (run_end - t)
        remaining[pos] = left
        t = run_end

        if left <= eps:
            # Pop the finished job.
            hn -= 1
            lk = heap_key[hn]
            lp = heap_pos[hn]
            i = 0
            while True:
                c = 2 * i + 1
                if c >= hn:
                    break
                r = c + 1
                if r < hn and (
                    heap_key[r] < heap_key[c]
                    or (
                        heap_key[r] == heap_key[c]
                        and heap_pos[r] < heap_pos[c]
                    )
                ):
                    c = r
                if heap_key[c] < lk or (
                    heap_key[c] == lk and heap_pos[c] < lp
                ):
                    heap_key[i] = heap_key[c]
                    heap_pos[i] = heap_pos[c]
                    i = c
                else:
                    break
            heap_key[i] = lk
            heap_pos[i] = lp
            finished += 1
            if t > dl_a[pos] - eps:
                # side="left": the run *finished* here, so a boundary
                # coordinate resolves to the block start.
                lo = 0
                hi = ab.size
                while lo < hi:
                    mid = (lo + hi) // 2
                    if ab[mid] < t:
                        lo = mid + 1
                    else:
                        hi = mid
                finished_at = t + cum[lo]
                if finished_at > deadlines[pos] + tol:
                    err[0] = 2.0
                    err[1] = pos
                    err[2] = finished_at
                    err[3] = left
                    return nruns
    return nruns


# ----------------------------------------------------------------------
# Relaxation pricing: per-row path costs and the pairwise sweep move.
# ----------------------------------------------------------------------
def row_costs(eids, starts, lens, weights, out):
    """``out[r] = sum(weights[eids[starts[r] : starts[r] + lens[r]]])``.

    Left-to-right accumulation per row.  Equivalent to the array
    tier's gather + ``np.add.reduceat`` up to summation order: numpy's
    reduceat accumulates in a blocked (SIMD-dependent) order, so the
    two can differ in the last ulp.  The pinning suite compares this
    kernel bit for bit against a sequential replica instead.
    """
    for r in range(out.size):
        s = starts[r]
        c = 0.0
        for j in range(lens[r]):
            c += weights[eids[s + j]]
        out[r] = c


def pairwise_delta(
    eids,
    lens,
    starts,
    owner,
    flow,
    weights,
    inv_h,
    demands,
    cap_at_demand,
    delta,
    direction,
):
    """One pairwise (away-step) move: per-row flow deltas + edge direction.

    Fuses the array tier's gather/reduceat path costs, the
    curvature-weighted per-commodity ``lambda``, the clipped Newton
    move with rebalanced outflow, and the direction scatter
    (``FrankWolfeSolver._pairwise_direction``) into one pass.  Scatter
    accumulation mirrors ``np.bincount`` (row order, then within-row
    edge order); row cost sums run left to right, which can differ
    from ``np.add.reduceat``'s blocked order in the last ulp, so the
    pinning suite checks ``delta``/``direction`` bit for bit against a
    sequential numpy replica and leaves the solver-level agreement to
    the certified dual bounds.  Returns 1 when any row moved (the
    numpy tier's ``np.any(delta)``).
    """
    n = owner.size
    k = demands.size
    lam_num = np.zeros(k)
    lam_den = np.zeros(k)
    costs = np.empty(n)
    for r in range(n):
        s = starts[r]
        c = 0.0
        for j in range(lens[r]):
            c += weights[eids[s + j]]
        costs[r] = c
        lam_den[owner[r]] += inv_h[r]
        lam_num[owner[r]] += c * inv_h[r]
    lam = np.empty(k)
    for s in range(k):
        den = lam_den[s]
        if den < 1e-30:
            den = 1e-30
        lam[s] = lam_num[s] / den

    neg = np.empty(n)
    pos = np.empty(n)
    pos_sum = np.zeros(k)
    neg_sum = np.zeros(k)
    for r in range(n):
        o = owner[r]
        d = (lam[o] - costs[r]) * inv_h[r]
        if d < -flow[r]:
            d = -flow[r]
        if cap_at_demand and d > demands[o]:
            d = demands[o]
        if d < 0.0:
            dn = d
        else:
            dn = 0.0
        dp = d - dn
        neg[r] = dn
        pos[r] = dp
        pos_sum[o] += dp
        neg_sum[o] += -dn

    moved = 0
    for r in range(n):
        o = owner[r]
        if pos_sum[o] > 0.0:
            den = pos_sum[o]
            if den < 1e-30:
                den = 1e-30
            d = neg[r] + pos[r] * (neg_sum[o] / den)
        else:
            d = 0.0
        delta[r] = d
        if d != 0.0:
            moved = 1

    for e in range(direction.size):
        direction[e] = 0.0
    for r in range(n):
        d = delta[r]
        s = starts[r]
        for j in range(lens[r]):
            direction[eids[s + j]] += d
    return moved
