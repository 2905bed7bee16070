"""Pure-Python Most-Critical-First and its critical-interval scorer.

These are the oracles of the production engines:
:func:`solve_dcfs_reference` re-scores every invalidated link from
scratch and selects the winner with a sequential challenge scan, and
:func:`critical_interval_reference` enumerates every (release, deadline)
pair of one link over :class:`~repro.scheduling.YdsJob` lists.
:func:`repro.core.solve_dcfs` and the scorers in
:mod:`repro.scheduling.yds` must reproduce them bit for bit
(``tests/test_perf_kernels.py``).  No replay, experiment or library path
runs them, so they live beside the tests; tests and benchmarks import
them as ``tests.oracles.dcfs``.

The oracle shares no bookkeeping with the engine it pins: it builds its
own per-link flow sets, and :class:`_RemergeTimeline` keeps every link's
reservations by re-merging the whole list and rebuilding every column on
each insertion, as :class:`~repro.scheduling.timeline.BlockedTimeline`
did before its splice.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from repro.core.dcfs import DcfsResult
from repro.errors import InfeasibleError, ValidationError
from repro.flows.flow import FlowSet
from repro.power.model import PowerModel
from repro.scheduling.edf import EdfJob, edf_schedule
from repro.scheduling.schedule import FlowSchedule, Schedule, Segment
from repro.scheduling.timeline import BlockedTimeline, merge_segments
from repro.scheduling.yds import _EPS, YdsJob
from repro.topology.base import Edge, Topology, path_edges

__all__ = ["critical_interval_reference", "solve_dcfs_reference"]


class _RemergeTimeline(BlockedTimeline):
    """A :class:`BlockedTimeline` whose insertion re-merges everything.

    :meth:`add_many` merges the whole stored list with the incoming
    blocks and rebuilds starts, ends and prefix sums from scratch; the
    queries are the production ones.
    """

    def add_many(self, segments: Iterable[tuple[float, float]]) -> None:
        incoming = sorted((a, b) for a, b in segments if b > a)
        if not incoming:
            return
        merged = merge_segments(self._segments + incoming)
        self._segments = merged
        self._starts = [s for s, _ in merged]
        self._ends = [e for _, e in merged]
        self._prefix = list(
            accumulate((e - s for s, e in merged), initial=0.0)
        )


def critical_interval_reference(
    jobs: list[YdsJob], blocked: BlockedTimeline | None = None
) -> tuple[float, float, float, list[YdsJob]]:
    """Pure-Python brute-force enumeration of all (release, deadline) pairs.

    The pinning reference of :func:`repro.scheduling.critical_interval`
    and of every scorer behind it; semantics are identical.
    """
    if not jobs:
        raise ValidationError("critical_interval requires at least one job")
    releases = sorted({j.release for j in jobs})
    deadlines = sorted({j.deadline for j in jobs})
    best: tuple[float, float, float, list[YdsJob]] | None = None
    for a in releases:
        # Jobs released at/after ``a``, grouped by deadline prefix sums.
        eligible = sorted(
            (j for j in jobs if j.release >= a - _EPS),
            key=lambda j: j.deadline,
        )
        if not eligible:
            continue
        work_prefix = [0.0]
        for j in eligible:
            work_prefix.append(work_prefix[-1] + j.work)
        for b in deadlines:
            if b <= a:
                continue
            # Count eligible jobs with deadline <= b (+ eps).
            count = bisect_right([j.deadline for j in eligible], b + _EPS)
            if count == 0:
                continue
            total_work = work_prefix[count]
            available = b - a
            if blocked is not None:
                available -= blocked.overlap(a, b)
            if available <= 1e-12:
                raise InfeasibleError(
                    f"no available time in [{a:g}, {b:g}] but jobs remain"
                )
            intensity = total_work / available
            key = (intensity, -a, -(b - a))
            if best is None or key > (best[2], -best[0], -(best[1] - best[0])):
                best = (a, b, intensity, eligible[:count])
    assert best is not None
    return best


def solve_dcfs_reference(
    flows: FlowSet,
    topology: Topology,
    paths: Mapping[int | str, Sequence[str]],
    power: PowerModel,
) -> DcfsResult:
    """Pure-Python Most-Critical-First, the pinning reference.

    Re-scores every queued link's critical interval with the brute-force
    :func:`critical_interval_reference` whenever its cache entry was
    invalidated and selects the winner with a sequential challenge scan.
    ``solve_dcfs`` must produce identical output.
    """
    flows.validate_against(topology)
    alpha = power.alpha
    flow_paths: dict[int | str, tuple[str, ...]] = {}
    flow_edges: dict[int | str, tuple[Edge, ...]] = {}
    virtual: dict[int | str, float] = {}
    position: dict[int | str, int] = {}
    for i, flow in enumerate(flows):
        if flow.id not in paths:
            raise ValidationError(f"no path supplied for flow {flow.id!r}")
        path = tuple(paths[flow.id])
        topology.validate_path(path, flow.src, flow.dst)
        flow_paths[flow.id] = path
        edges = flow_edges[flow.id] = path_edges(path)
        virtual[flow.id] = flow.size * len(edges) ** (1.0 / alpha)
        position[flow.id] = i
    link_flows: dict[Edge, set[int | str]] = {}
    for flow in flows:
        for edge in flow_edges[flow.id]:
            link_flows.setdefault(edge, set()).add(flow.id)

    blocked: dict[Edge, BlockedTimeline] = {
        edge: _RemergeTimeline() for edge in link_flows
    }
    # Cached most-critical interval per link; None = needs recomputation.
    # The boolean marks overlap mode (see the module docstring).
    Candidate = tuple[float, float, float, list[YdsJob], bool]
    cache: dict[Edge, Candidate | None] = {edge: None for edge in link_flows}

    def link_candidate(edge: Edge) -> Candidate:
        jobs = [
            YdsJob(
                id=fid,
                release=flows[fid].release,
                deadline=flows[fid].deadline,
                work=virtual[fid],
            )
            # By str(id), ties (ids 1 and "1") in FlowSet order.
            for fid in sorted(
                link_flows[edge], key=lambda f: (str(f), position[f])
            )
        ]
        try:
            a, b, delta, contained = critical_interval_reference(
                jobs, blocked[edge]
            )
            return (a, b, delta, contained, False)
        except InfeasibleError:
            # Cross-link reservations exhausted some span on this link;
            # fall back to raw-time accounting (overlap mode).
            a, b, delta, contained = critical_interval_reference(jobs, None)
            return (a, b, delta, contained, True)

    rates: dict[int | str, float] = {}
    segments: dict[int | str, list[tuple[float, float]]] = {}
    remaining = {flow.id for flow in flows}
    rounds = 0

    while remaining:
        rounds += 1
        best_edge: Edge | None = None
        best: Candidate | None = None
        for edge in sorted(link_flows):
            if not link_flows[edge]:
                continue
            if cache[edge] is None:
                cache[edge] = link_candidate(edge)
            candidate = cache[edge]
            assert candidate is not None
            if best is None or candidate[2] > best[2] + 1e-15:
                best, best_edge = candidate, edge
        if best is None or best_edge is None:
            raise AssertionError(
                "flows remain but no link has queued flows"
            )  # pragma: no cover

        a, b, delta, critical_jobs, overlap_mode = best
        edf_jobs = []
        for job in critical_jobs:
            fid = job.id
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
        edf_blocked = () if overlap_mode else blocked[best_edge].segments()
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

        touched: set[Edge] = set()
        for job in critical_jobs:
            fid = job.id
            segments[fid] = placed[fid]
            remaining.discard(fid)
            for edge in flow_edges[fid]:
                link_flows[edge].discard(fid)
                blocked[edge].add_many(placed[fid])
                touched.add(edge)
        for edge in touched:
            cache[edge] = None

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
