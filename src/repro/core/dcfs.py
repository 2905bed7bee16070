"""Most-Critical-First: the paper's optimal DCFS algorithm (Algorithm 1).

DCFS fixes a routing path ``P_i`` per flow and asks for the minimum-energy
rate assignment and schedule.  By Lemma 1 each flow uses a single rate; by
Lemma 2 the smallest deadline-feasible rates are optimal; and the problem
reduces to a YDS instance per link after giving each flow the *virtual
weight* ``w'_i = w_i * |P_i|^(1/alpha)`` (Theorem 1): a flow crossing many
links should run slightly faster is never beneficial — the Lagrange
condition equalizes ``|P_i|^(1/alpha) * s_i`` across flows sharing a
critical interval.

The algorithm repeats:

1. over every link ``e`` that still has unscheduled flows, find the
   interval ``I = [a, b]`` maximizing the *intensity*
   ``delta(I, e) = sum of virtual weights of flows on e with span in I``
   divided by the available (not yet reserved) time of ``I`` on ``e``;
2. pick the globally most critical ``(I*, e*)``, set every contained flow's
   rate to ``s_i = delta / |P_i|^(1/alpha)``, lay the flows out with
   preemptive EDF inside the available time of ``I*`` on ``e*``;
3. reserve each flow's execution segments on **every** link of its path
   (virtual-circuit occupancy) and drop the flows from all link queues.

The produced schedule transmits each flow at its single rate during its EDF
segments; per-link rates never stack because EDF serializes — with one
caveat the paper glosses over: reservations made *for other links'*
critical intervals can fragment (or even exhaust) a flow's span on its own
link.  Step 3's EDF only respects the critical link's reservations (as
written in the paper), so when strict availability accounting would make a
link's remaining flows unschedulable, this implementation falls back to
*overlap mode* for that link: intensity and EDF are computed on raw
(unreserved) time, letting segments stack on shared links.  Deadlines are
always met; the energy integral (``Schedule.energy``) charges the stacking
honestly.  See DESIGN.md Section 5, note 6.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import InfeasibleError, ValidationError
from repro.flows.flow import Flow, FlowSet
from repro.power.model import PowerModel
from repro.scheduling.edf import EdfJob, edf_schedule
from repro.scheduling.schedule import FlowSchedule, Schedule, Segment
from repro.scheduling.timeline import BlockedTimeline
from repro.scheduling.yds import (
    contained_indices,
    critical_interval_arrays,
    critical_interval_batch,
)
from repro.topology.base import Edge, Topology, path_edges

__all__ = ["DcfsResult", "solve_dcfs"]

#: Strictly-greater-by tolerance when a later link challenges the current
#: most-critical candidate: the sequential challenge scan of the reference
#: Most-Critical-First (``tests/oracles/dcfs.py``).
_TIE_TOL = 1e-15


@dataclass(frozen=True)
class DcfsResult:
    """Output of Most-Critical-First.

    Attributes
    ----------
    schedule:
        The full schedule (rates, segments, paths); feed it to
        :meth:`repro.scheduling.Schedule.energy`.
    rates:
        The single transmission rate chosen per flow (Lemma 1).
    rounds:
        Number of critical-interval iterations the algorithm performed.
    """

    schedule: Schedule
    rates: Mapping[int | str, float]
    rounds: int

    def dynamic_energy(self, power: PowerModel) -> float:
        """Closed-form ``sum_i |P_i| * w_i * mu * s_i^(alpha-1)``.

        This is the paper's objective value for the chosen rates.  It equals
        the integrated link energy whenever no two flows' segments overlap
        on a shared link.  Algorithm 1 (faithfully implemented) only makes
        EDF avoid reserved time on the *critical* link of each round, so
        flows scheduled in different rounds can occasionally overlap on a
        non-critical shared link; superadditivity then makes the integrated
        energy slightly exceed this closed form.  ``Schedule.energy`` is
        the ground truth ``Phi_f``; tests pin ``integral >= closed form``
        with equality on overlap-free instances (Example 1, single links,
        disjoint paths).
        """
        total = 0.0
        for fs in self.schedule:
            s = self.rates[fs.flow.id]
            total += fs.num_links * fs.flow.size * power.mu * s ** (power.alpha - 1.0)
        return total


def _virtual_weight(flow: Flow, num_links: int, alpha: float) -> float:
    """``w'_i = w_i * |P_i|^(1/alpha)`` (Section III-C)."""
    return flow.size * num_links ** (1.0 / alpha)


def _prepare_instance(
    flows: FlowSet,
    topology: Topology,
    paths: Mapping[int | str, Sequence[str]],
    alpha: float,
) -> tuple[
    dict[int | str, tuple[str, ...]],
    dict[int | str, tuple[Edge, ...]],
    dict[int | str, float],
]:
    """Validate paths and build the per-flow paths, edges and weights."""
    flow_paths: dict[int | str, tuple[str, ...]] = {}
    flow_edges: dict[int | str, tuple[Edge, ...]] = {}
    virtual: dict[int | str, float] = {}
    for flow in flows:
        if flow.id not in paths:
            raise ValidationError(f"no path supplied for flow {flow.id!r}")
        path = tuple(paths[flow.id])
        topology.validate_path(path, flow.src, flow.dst)
        flow_paths[flow.id] = path
        edges = path_edges(path)
        flow_edges[flow.id] = edges
        virtual[flow.id] = _virtual_weight(flow, len(edges), alpha)
    return flow_paths, flow_edges, virtual


def solve_dcfs(
    flows: FlowSet,
    topology: Topology,
    paths: Mapping[int | str, Sequence[str]],
    power: PowerModel,
) -> DcfsResult:
    """Run Most-Critical-First on a routed instance.

    This is the incremental engine (DESIGN.md Sections 8, 17, 22 and
    25): each link keeps its queued flows as parallel Python lists that
    shrink in place as flows are scheduled, candidate critical intervals
    live in a lazy max-heap with version-stamp invalidation, each round
    merges the union of its EDF segments once into every touched link
    that still has queued flows (the only links a later round scores or
    lays out, so a link's timeline is created at its first such merge),
    and only those links are re-scored, all in one
    :func:`repro.scheduling.yds.critical_interval_batch` call that takes
    the lists as they are.  The contained flows are listed only for the
    link a round selects.  Output — rates, rounds, segments, tie-breaking
    included — is identical to the pure-Python oracle
    ``solve_dcfs_reference`` in ``tests/oracles/dcfs.py``, which keeps
    every link's reservations with a full re-merge and which
    ``tests/test_perf_kernels.py`` pins.

    Parameters
    ----------
    flows:
        The deadline-constrained flows.
    topology:
        The network; every path is validated against it.
    paths:
        Flow id -> node path from the flow's source to its destination.
    power:
        Link power model supplying ``alpha`` (the virtual-weight exponent).
        Capacity is *not* enforced — the paper's minimum-energy schedule
        relaxes it (Section III-A); use ``Schedule.verify`` to inspect
        violations.

    Raises
    ------
    InfeasibleError
        When reserved time fragments a flow's span so badly that EDF cannot
        meet a deadline (cannot happen on single-link instances; see
        DESIGN.md Section 5 note on Algorithm 1's optimality scope).
    """
    flows.validate_against(topology)
    alpha = power.alpha
    flow_paths, flow_edges, virtual = _prepare_instance(
        flows, topology, paths, alpha
    )

    # Per-link queue: (flow ids, releases, deadlines, virtual weights) as
    # parallel lists, filled in one pass over the flows in (str(id),
    # FlowSet position) order, the reference's order (total even where
    # two ids share a ``str``).  Scheduling a flow deletes its entries in
    # place, so a re-score hands the live columns to the scorer without
    # copying them.
    queue: dict[Edge, tuple[list, list[float], list[float], list[float]]] = {}
    ordered = sorted(
        enumerate(flows), key=lambda item: (str(item[1].id), item[0])
    )
    for _, flow in ordered:
        for edge in flow_edges[flow.id]:
            columns = queue.get(edge)
            if columns is None:
                columns = queue[edge] = ([], [], [], [])
            fids, rel, dl, wk = columns
            fids.append(flow.id)
            rel.append(flow.release)
            dl.append(flow.deadline)
            wk.append(virtual[flow.id])
    sorted_edges = sorted(queue)
    rank = {edge: i for i, edge in enumerate(sorted_edges)}
    # Reservations per link, created at the first merge a re-score reads:
    # a link without one has nothing reserved, which the scorer reads as
    # ``None`` and EDF as ``()``.
    blocked: dict[Edge, BlockedTimeline] = {}

    # Candidate = (a, b, delta, count, overlap_mode): the link's critical
    # interval [a, b] holds the first ``count`` queued flows that
    # ``contained_indices`` lists, built only for the link a round picks.
    Candidate = tuple[float, float, float, int, bool]

    # Lazy max-heap of candidates: entries are (-delta, rank, version,
    # edge); an entry is stale once the edge's version moved past the one
    # it was pushed with (its timeline or queue changed) and is discarded
    # on pop.  Fresh candidates are also mirrored in ``cand`` for the
    # exact tie-break scan below.
    cand: dict[Edge, Candidate] = {}
    version: dict[Edge, int] = {edge: 0 for edge in sorted_edges}
    heap: list[tuple[float, int, int, Edge]] = []

    def score(edges: list[Edge]) -> None:
        """Score ``edges`` in one batched pass and push their candidates."""
        columns = [queue[edge] for edge in edges]
        scores = critical_interval_batch(
            [
                (rel, dl, wk, blocked.get(edge))
                for edge, (_fids, rel, dl, wk) in zip(edges, columns)
            ]
        )
        for edge, (_fids, rel, dl, wk), scored in zip(edges, columns, scores):
            if scored is None:
                # Cross-link reservations exhausted some span on this
                # link; fall back to raw-time accounting (overlap mode).
                a, b, delta, contained = critical_interval_arrays(
                    rel, dl, wk, None
                )
                candidate = (a, b, delta, len(contained), True)
            else:
                candidate = (*scored, False)
            cand[edge] = candidate
            heapq.heappush(
                heap, (-candidate[2], rank[edge], version[edge], edge)
            )

    score(sorted_edges)

    rates: dict[int | str, float] = {}
    segments: dict[int | str, list[tuple[float, float]]] = {}
    unscheduled = len(flows)
    rounds = 0

    while unscheduled:
        rounds += 1
        # Pop the maximum fresh candidate, then every fresh candidate
        # within the reference's 1e-15 challenge tolerance of it.
        top_delta: float | None = None
        contenders: list[tuple[float, int, int, Edge]] = []
        while heap:
            neg_delta, _rk, ver, edge = heap[0]
            if ver != version[edge] or not queue[edge][0]:
                heapq.heappop(heap)
                continue
            if top_delta is not None and -neg_delta < top_delta - _TIE_TOL:
                break
            contenders.append(heapq.heappop(heap))
            if top_delta is None:
                top_delta = -neg_delta
        if top_delta is None:
            raise AssertionError(
                "flows remain but no link has queued flows"
            )  # pragma: no cover
        if len(contenders) == 1:
            best_edge = contenders[0][3]
            best = cand[best_edge]
        else:
            # Near-tie: replay the reference's sequential challenge scan
            # over every queued link so the selected link matches exactly.
            best_edge = None
            best = None
            for edge in sorted_edges:
                if not queue[edge][0]:
                    continue
                candidate = cand[edge]
                if best is None or candidate[2] > best[2] + _TIE_TOL:
                    best, best_edge = candidate, edge
            assert best is not None and best_edge is not None
        for entry in contenders:
            if entry[3] != best_edge:
                heapq.heappush(heap, entry)

        a, b, delta, count, overlap_mode = best
        fids, rel, dl, _wk = queue[best_edge]
        crit_fids = [fids[i] for i in contained_indices(rel, dl, a, count)]
        edf_jobs = []
        for fid in crit_fids:
            rate = delta / len(flow_edges[fid]) ** (1.0 / alpha)
            rates[fid] = rate
            # Execution time w_i / s_i = w'_i / delta.
            edf_jobs.append(
                EdfJob(
                    id=fid,
                    release=flows[fid].release,
                    deadline=flows[fid].deadline,
                    duration=virtual[fid] / delta,
                )
            )
        timeline = None if overlap_mode else blocked.get(best_edge)
        edf_blocked = () if timeline is None else timeline.segments()
        try:
            placed = edf_schedule(edf_jobs, blocked=edf_blocked)
        except InfeasibleError:
            # Fragmented availability can defeat EDF even when the total
            # available time suffices; retry on raw time (overlap mode).
            try:
                placed = edf_schedule(edf_jobs, blocked=())
            except InfeasibleError as exc:
                raise InfeasibleError(
                    f"Most-Critical-First: EDF failed inside critical "
                    f"interval [{a:g}, {b:g}] on link {best_edge!r}: {exc}"
                ) from exc

        # Dequeue the round's flows and gather, per touched link, the
        # union of their EDF segments: one reservation merge per link
        # (bit-identical to the reference's merge per flow and link).
        new_blocks: dict[Edge, list[tuple[float, float]]] = {}
        for fid in crit_fids:
            segments[fid] = placed[fid]
            for edge in flow_edges[fid]:
                fids, rel, dl, wk = queue[edge]
                pos = fids.index(fid)
                del fids[pos], rel[pos], dl[pos], wk[pos]
                new_blocks.setdefault(edge, []).extend(placed[fid])
        unscheduled -= len(crit_fids)
        # Invalidate and eagerly re-score touched links (re-scoring must be
        # eager: added reservations can *raise* a link's best intensity, so
        # a purely pop-time refresh would under-estimate the heap top).
        # Only a link with queued flows is ever scored or laid out again,
        # so a link the round emptied keeps no reservations.
        dirty = []
        for edge, blocks in new_blocks.items():
            version[edge] += 1
            if not queue[edge][0]:
                cand.pop(edge, None)
                continue
            timeline = blocked.get(edge)
            if timeline is None:
                timeline = blocked[edge] = BlockedTimeline()
            timeline.add_many(blocks)
            dirty.append(edge)
        if dirty:
            score(dirty)

    flow_schedules = []
    for flow in flows:
        fs_segments = tuple(
            Segment(start=s, end=e, rate=rates[flow.id])
            for s, e in segments[flow.id]
        )
        flow_schedules.append(
            FlowSchedule(flow=flow, path=flow_paths[flow.id], segments=fs_segments)
        )
    return DcfsResult(
        schedule=Schedule(flow_schedules), rates=rates, rounds=rounds
    )
