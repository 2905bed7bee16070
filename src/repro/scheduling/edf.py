"""Preemptive Earliest-Deadline-First on a single resource with blocked time.

Both of the paper's algorithms delegate to EDF once rates are fixed:
Algorithm 1 (Most-Critical-First) runs the flows of a critical interval
under EDF on the critical link, and Algorithm 2 (Random-Schedule) forwards
per-interval traffic under EDF.  The resource here is *time on one link*:
jobs are (release, deadline, duration) triples and the schedule assigns
each job disjoint execution segments, at most one job executing at a time,
never inside a *blocked* segment (time already reserved by earlier critical
intervals).

EDF with preemption is optimal for feasibility on one resource, so if EDF
misses a deadline the job set is genuinely infeasible and
:class:`~repro.errors.InfeasibleError` is raised.

Three engines live here, and the dispatcher :func:`edf_schedule` picks
one by size.  :func:`edf_schedule_scalar` advances slice by slice
through every block boundary; it serves the small per-link queues that
dominate Most-Critical-First rounds (4.4 jobs per call on the
``dcfs-epoch`` benchmark), where NumPy call overhead would swamp an
array engine.  Above ``_SCALAR_CUTOFF`` jobs :func:`edf_schedule_arrays`
takes over, an array-backed event sweep: the merged blocked segments
compile once into sorted start/end/cumulative-measure arrays, every
release and deadline maps into *available-time* coordinates in one
vectorized pass (inside those coordinates the blocked segments vanish,
so the sweep's only event axis is the sorted release array), and the
executed runs map back to real time — splitting at the blocks they
straddle — in one batched ``searchsorted`` pass at the end.
:func:`edf_schedule_compiled` shares that transform and back-map but
runs the sweep itself as the :func:`repro.kernels._impl.edf_sweep`
flat-array heap kernel (numba when available, interpreted otherwise);
the dispatcher uses it instead of the array engine when the kernel tier
(:mod:`repro.kernels`) is active.  ``tests/test_edf.py`` and
``tests/test_kernels.py`` pin the engines on a dyadic-rational grid
where the arithmetics are exact, so all of them must agree bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import kernels
from repro.errors import InfeasibleError, ValidationError
from repro.scheduling.timeline import merge_segments

__all__ = [
    "EdfJob",
    "edf_schedule",
    "edf_schedule_arrays",
    "edf_schedule_compiled",
    "edf_schedule_scalar",
]

_EPS = 1e-9

#: Job counts at or below this take the scalar engine: the array engine's
#: fixed transform overhead (~a few numpy calls) would dominate the tiny
#: per-link queues Most-Critical-First feeds it.
_SCALAR_CUTOFF = 48


@dataclass(frozen=True)
class EdfJob:
    """A preemptible job requiring ``duration`` time inside ``[release, deadline]``."""

    id: int | str
    release: float
    deadline: float
    duration: float

    def __post_init__(self) -> None:
        if not self.deadline > self.release:
            raise ValidationError(
                f"job {self.id!r}: deadline {self.deadline} must exceed "
                f"release {self.release}"
            )
        if not self.duration > 0:
            raise ValidationError(
                f"job {self.id!r}: duration must be > 0, got {self.duration}"
            )


def edf_schedule(
    jobs: Iterable[EdfJob],
    blocked: Iterable[tuple[float, float]] = (),
    tol: float = 1e-7,
) -> dict[int | str, list[tuple[float, float]]]:
    """Preemptive EDF over available (non-blocked) time.

    Parameters
    ----------
    jobs:
        Jobs to place; ids must be unique.
    blocked:
        Time segments unavailable to every job (need not be disjoint).
    tol:
        Deadline slack tolerated before declaring infeasibility; guards
        against floating-point dust from upstream rate computations.

    Returns
    -------
    dict
        Job id -> list of disjoint ``(start, end)`` execution segments in
        increasing order, with adjacent segments coalesced.

    Raises
    ------
    InfeasibleError
        If some job cannot finish by its deadline (EDF optimality makes
        this a certificate of infeasibility).
    """
    job_list = list(jobs)
    if len(job_list) <= _SCALAR_CUTOFF:
        return edf_schedule_scalar(job_list, blocked, tol)
    if kernels.active() is not None:
        return edf_schedule_compiled(job_list, blocked, tol)
    return edf_schedule_arrays(job_list, blocked, tol)


# ----------------------------------------------------------------------
# Array engine: the sweep runs in available-time coordinates.
# ----------------------------------------------------------------------
def _to_available(
    t: np.ndarray, bs: np.ndarray, be: np.ndarray, cum: np.ndarray
) -> np.ndarray:
    """Map real times to available-time coordinates (vectorized).

    ``A(t)`` is the measure of unblocked time in ``[-inf, t]`` anchored so
    ``A`` is the identity before the first block; times inside a block
    collapse to the block start's coordinate.
    """
    if bs.size == 0:
        return t
    i = np.searchsorted(be, t, side="right")
    upper = np.append(bs, np.inf)[i]
    return np.minimum(t, upper) - cum[i]


def edf_schedule_arrays(
    jobs: Iterable[EdfJob],
    blocked: Iterable[tuple[float, float]] = (),
    tol: float = 1e-7,
) -> dict[int | str, list[tuple[float, float]]]:
    """The array-backed event sweep behind :func:`edf_schedule`.

    Blocked time is removed up front: releases and deadlines transform
    into available-time coordinates in one vectorized pass, the
    preemptive sweep runs with the sorted release array as its only
    boundary axis (no per-block slicing), and the executed runs transform
    back — splitting at straddled blocks — in one batched pass.
    """
    job_list = list(jobs)
    ids = [j.id for j in job_list]
    if len(set(ids)) != len(ids):
        raise ValidationError("EDF job ids must be unique")
    if not job_list:
        return {}

    bs, be, cum, ab, nb, order, deadlines, rel_a_arr, dl_a_arr = (
        _edf_transform(job_list, blocked)
    )
    rel_a = rel_a_arr.tolist()
    dl_a = dl_a_arr.tolist()
    deadline_list = deadlines.tolist()
    remaining = [job_list[i].duration for i in order]

    heappush, heappop = heapq.heappush, heapq.heappop
    ready: list[tuple[float, int, int]] = []  # (real deadline, seq, pos)
    seq = 0
    num_jobs = len(job_list)
    release_idx = 0
    finished = 0
    t = rel_a[0]
    inf = float("inf")
    next_rel = t
    runs: list[tuple[int, float, float]] = []  # (pos, avail start, avail end)
    runs_append = runs.append

    def real_time(a: float, side: str = "right") -> float:
        """Back-map one available coordinate to real time.

        On a block boundary ``side="right"`` resolves to the block's end
        (a point the sweep is *at* while work remains) and ``side="left"``
        to its start (a point a run just *finished* at).
        """
        return a + cum[np.searchsorted(ab, a, side=side)]

    while finished < num_jobs:
        if next_rel <= t + _EPS:
            while release_idx < num_jobs and rel_a[release_idx] <= t + _EPS:
                heappush(
                    ready, (deadline_list[release_idx], seq, release_idx)
                )
                seq += 1
                release_idx += 1
            next_rel = rel_a[release_idx] if release_idx < num_jobs else inf

        if not ready:
            if next_rel == inf:
                raise AssertionError(
                    "EDF ran out of work with unfinished jobs"
                )  # pragma: no cover
            if next_rel > t:
                t = next_rel
            continue

        pos = ready[0][2]
        left = remaining[pos]
        # Deadline verdicts are decided in *real* time: available-time
        # distances only under-estimate real ones (A is 1-Lipschitz), so a
        # job within tolerance in available coordinates can still sit far
        # past its real deadline when a block follows it.  Any real
        # violation has t >= dl_a (A is monotone), so the back-map is only
        # paid on that rare branch.
        if t > dl_a[pos] - _EPS and left > tol:
            missed_at = real_time(t)
            if missed_at > deadline_list[pos] + tol:
                raise InfeasibleError(
                    f"EDF: job {job_list[order[pos]].id!r} missed deadline "
                    f"{deadline_list[pos]:g} (time {missed_at:g}, "
                    f"{left:g} work left)"
                )

        run_end = t + left
        if run_end > next_rel:
            run_end = next_rel
        runs_append((pos, t, run_end))
        remaining[pos] = left = left - (run_end - t)
        t = run_end

        if left <= _EPS:
            heappop(ready)
            finished += 1
            if t > dl_a[pos] - _EPS:
                # side="left": the run *ended* here, so a boundary
                # coordinate resolves to the block start, not its end.
                finished_at = real_time(t, side="left")
                if finished_at > deadline_list[pos] + tol:
                    raise InfeasibleError(
                        f"EDF: job {job_list[order[pos]].id!r} finished at "
                        f"{finished_at:g} after its deadline "
                        f"{deadline_list[pos]:g}"
                    )

    run_jobs, run_starts, run_ends = zip(*runs)
    return _edf_backmap(
        job_list, order, run_jobs,
        np.array(run_starts), np.array(run_ends), bs, be, cum, ab, nb,
    )


# ----------------------------------------------------------------------
# Shared transform / back-map of the array and compiled engines.
# ----------------------------------------------------------------------
def _edf_transform(
    job_list: list[EdfJob], blocked: Iterable[tuple[float, float]]
) -> tuple:
    """Compile blocks + admission order into the sweep's input arrays.

    Returns ``(bs, be, cum, ab, nb, order, deadlines, rel_a, dl_a)``:
    the merged block start/end arrays, ``cum[i]`` the blocked measure
    strictly before block i, ``ab[i]`` block i's start in available
    coordinates, the scalar engine's admission order (release, deadline,
    str(id)) — A() is monotone, so this order is also nondecreasing in
    transformed release and heap ties resolve identically to the
    scalar engine — plus the admission-ordered real deadlines and the
    available-coordinate release/deadline arrays.
    """
    blocked_merged = merge_segments(blocked)
    nb = len(blocked_merged)
    bs = np.array([s for s, _ in blocked_merged])
    be = np.array([e for _, e in blocked_merged])
    cum = np.zeros(nb + 1)
    np.cumsum(be - bs, out=cum[1:])
    ab = bs - cum[:-1]
    order = sorted(
        range(len(job_list)),
        key=lambda i: (
            job_list[i].release,
            job_list[i].deadline,
            str(job_list[i].id),
        ),
    )
    releases = np.array([job_list[i].release for i in order])
    deadlines = np.array([job_list[i].deadline for i in order])
    rel_a = _to_available(releases, bs, be, cum)
    dl_a = _to_available(deadlines, bs, be, cum)
    return bs, be, cum, ab, nb, order, deadlines, rel_a, dl_a


def _edf_backmap(
    job_list: list[EdfJob],
    order: list[int],
    run_jobs: Sequence[int],
    a0: np.ndarray,
    a1: np.ndarray,
    bs: np.ndarray,
    be: np.ndarray,
    cum: np.ndarray,
    ab: np.ndarray,
    nb: int,
) -> dict[int | str, list[tuple[float, float]]]:
    """Back-map every run to real time in one batched pass, splitting runs
    that straddle blocks (each straddled block cuts one piece boundary:
    piece ends at the block start, the next piece resumes at its end)."""
    if nb:
        j0 = np.searchsorted(ab, a0, side="right")
        j1 = np.searchsorted(ab, a1, side="left")
        counts = j1 - j0 + 1
        total = int(counts.sum())
        run_of = np.repeat(np.arange(a0.size), counts)
        first = np.cumsum(counts) - counts
        offset = np.arange(total) - first[run_of]
        blk = j0[run_of] + offset
        is_first = offset == 0
        is_last = offset == counts[run_of] - 1
        starts = np.where(
            is_first,
            a0[run_of] + cum[j0[run_of]],
            be[np.maximum(blk - 1, 0)],
        )
        ends = np.where(
            is_last,
            a1[run_of] + cum[j1[run_of]],
            bs[np.minimum(blk, nb - 1)],
        )
        keep = ends > starts  # zero-measure blocks cut nothing
        run_of, starts, ends = run_of[keep], starts[keep], ends[keep]
    else:
        run_of, starts, ends = np.arange(a0.size), a0, a1

    segments: dict[int | str, list[tuple[float, float]]] = {
        j.id: [] for j in job_list
    }
    job_of_run = [job_list[order[pos]].id for pos in run_jobs]
    for r, s, e in zip(run_of.tolist(), starts.tolist(), ends.tolist()):
        segments[job_of_run[r]].append((s, e))
    # Per-job pieces are already time-sorted and positive, so the
    # scalar engine's merge_segments collapses to one linear coalesce with
    # the identical tolerance semantics.
    out: dict[int | str, list[tuple[float, float]]] = {}
    for jid, segs in segments.items():
        merged: list[tuple[float, float]] = []
        for piece in segs:
            if merged and piece[0] <= merged[-1][1] + 1e-12:
                prev = merged[-1]
                if piece[1] > prev[1]:
                    merged[-1] = (prev[0], piece[1])
            else:
                merged.append(piece)
        out[jid] = merged
    return out


# ----------------------------------------------------------------------
# Compiled engine: the sweep runs as a flat-array heap kernel.
# ----------------------------------------------------------------------
def edf_schedule_compiled(
    jobs: Iterable[EdfJob],
    blocked: Iterable[tuple[float, float]] = (),
    tol: float = 1e-7,
) -> dict[int | str, list[tuple[float, float]]]:
    """The compiled-tier sweep behind :func:`edf_schedule`.

    Shares :func:`_edf_transform` and :func:`_edf_backmap` with
    :func:`edf_schedule_arrays`; the event sweep in between runs as the
    :func:`repro.kernels._impl.edf_sweep` kernel — numba-compiled when
    the tier resolved ``compiled``, the interpreted kernel body
    otherwise, bit-identical results either way.  The ready heap keys on
    ``(real deadline, admission position)``, which reproduces the Python
    engine's ``(deadline, seq, pos)`` tuples exactly (admissions happen
    in position order, so ``seq == pos``); infeasibility raises the same
    :class:`InfeasibleError` messages as the array engine.
    """
    job_list = list(jobs)
    ids = [j.id for j in job_list]
    if len(set(ids)) != len(ids):
        raise ValidationError("EDF job ids must be unique")
    if not job_list:
        return {}
    kn = kernels.active()
    if kn is None:
        kn = kernels.interpreted()
    bs, be, cum, ab, nb, order, deadlines, rel_a, dl_a = _edf_transform(
        job_list, blocked
    )
    durations = np.array([job_list[i].duration for i in order])
    n = len(job_list)
    heap_key = np.empty(n)
    heap_pos = np.empty(n, dtype=np.int64)
    err = np.zeros(4)
    cap = 2 * n + 4  # runs <= completions + admission truncations
    while True:
        run_pos = np.empty(cap, dtype=np.int64)
        run_a0 = np.empty(cap)
        run_a1 = np.empty(cap)
        nruns = kn.edf_sweep(
            np.ascontiguousarray(rel_a), np.ascontiguousarray(dl_a),
            deadlines, durations, bs, be, cum, ab, tol, _EPS,
            heap_key, heap_pos, run_pos, run_a0, run_a1, err,
        )
        status = int(err[0])
        if status != 4:
            break
        cap *= 2  # float dust split runs past the nominal bound
    if status:
        pos = int(err[1])
        jid = job_list[order[pos]].id
        if status == 1:
            raise InfeasibleError(
                f"EDF: job {jid!r} missed deadline "
                f"{deadlines[pos]:g} (time {err[2]:g}, "
                f"{err[3]:g} work left)"
            )
        if status == 2:
            raise InfeasibleError(
                f"EDF: job {jid!r} finished at {err[2]:g} "
                f"after its deadline {deadlines[pos]:g}"
            )
        raise AssertionError(
            "EDF ran out of work with unfinished jobs"
        )  # pragma: no cover
    return _edf_backmap(
        job_list, order, run_pos[:nruns].tolist(),
        run_a0[:nruns], run_a1[:nruns], bs, be, cum, ab, nb,
    )


# ----------------------------------------------------------------------
# Scalar engine: slice by slice in real time.
# ----------------------------------------------------------------------
def _next_free_time(
    t: float, blocked: Sequence[tuple[float, float]], cursor: int
) -> tuple[float, int]:
    """Skip ``t`` past any blocked segment containing it.

    ``cursor`` is a monotone index into the sorted ``blocked`` list so the
    sweep stays linear overall.  Containment is exact, as in
    :meth:`BlockedTimeline.overlap`: free time before a block is used
    however short it is, and time inside one never is.
    """
    while cursor < len(blocked):
        start, end = blocked[cursor]
        if end <= t:
            cursor += 1
            continue
        if start <= t:
            return end, cursor + 1
        break
    return t, cursor


def _next_block_start(t: float, block_starts: Sequence[float]) -> float:
    """Start of the first blocked segment strictly after ``t`` (inf if none).

    ``block_starts`` is the sorted start array of the merged blocked
    segments, so one ``bisect`` replaces the historical linear scan —
    EDF calls this once per executed slice, which made the scan the
    ``yds_schedule`` bottleneck on single-link instances with thousands
    of jobs.
    """
    index = bisect_right(block_starts, t)
    if index < len(block_starts):
        return block_starts[index]
    return float("inf")


def edf_schedule_scalar(
    jobs: Iterable[EdfJob],
    blocked: Iterable[tuple[float, float]] = (),
    tol: float = 1e-7,
) -> dict[int | str, list[tuple[float, float]]]:
    """The scalar slice-by-slice EDF engine, for small job sets (see
    :func:`edf_schedule`)."""
    job_list = list(jobs)
    ids = [j.id for j in job_list]
    if len(set(ids)) != len(ids):
        raise ValidationError("EDF job ids must be unique")
    if not job_list:
        return {}

    blocked_merged = merge_segments(blocked)
    block_starts = [s for s, _ in blocked_merged]
    pending = sorted(job_list, key=lambda j: (j.release, j.deadline, str(j.id)))
    releases = [j.release for j in pending]
    num_pending = len(pending)
    num_jobs = len(job_list)
    remaining = {j.id: j.duration for j in job_list}
    segments: dict[int | str, list[tuple[float, float]]] = {j.id: [] for j in job_list}

    counter = itertools.count()
    heappush, heappop = heapq.heappush, heapq.heappop
    ready: list[tuple[float, int, EdfJob]] = []  # (deadline, seq, job)
    release_idx = 0
    cursor = 0
    t = releases[0]
    finished = 0
    inf = float("inf")

    while finished < num_jobs:
        # Admit everything released by now.
        while release_idx < num_pending and releases[release_idx] <= t + _EPS:
            job = pending[release_idx]
            heappush(ready, (job.deadline, next(counter), job))
            release_idx += 1

        # Skip blocked time.
        t_free, cursor = _next_free_time(t, blocked_merged, cursor)
        if t_free > t:
            t = t_free
            continue

        if not ready:
            if release_idx >= num_pending:
                raise AssertionError(
                    "EDF ran out of work with unfinished jobs"
                )  # pragma: no cover
            t = max(t, releases[release_idx])
            continue

        deadline, _seq, job = ready[0]
        left = remaining[job.id]
        if t > deadline + tol and left > tol:
            raise InfeasibleError(
                f"EDF: job {job.id!r} missed deadline {deadline:g} "
                f"(time {t:g}, {left:g} work left)"
            )

        boundary = min(
            _next_block_start(t, block_starts),
            releases[release_idx] if release_idx < num_pending else inf,
        )
        run_end = min(t + left, boundary)
        if run_end > t:
            segments[job.id].append((t, run_end))
            left -= run_end - t
            remaining[job.id] = left
            t = run_end
        else:
            # The clock cannot advance by ``left`` (below half an ulp of
            # ``t``; the boundary always lies after ``t``): what remains is
            # float dust, so the job is done.
            left = 0.0

        if left <= _EPS:
            heappop(ready)
            finished += 1
            if t > job.deadline + tol:
                raise InfeasibleError(
                    f"EDF: job {job.id!r} finished at {t:g} after its "
                    f"deadline {job.deadline:g}"
                )

    # Coalesce touching segments per job.
    return {
        jid: merge_segments(segs)
        for jid, segs in segments.items()
    }
