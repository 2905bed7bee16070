"""YDS optimal speed scaling on a single processor (Yao-Demers-Shenker, FOCS'95).

Given jobs ``(release, deadline, work)`` on one speed-scalable processor
with power ``mu * s^alpha`` (``alpha > 1``), YDS computes the schedule
minimizing total energy: repeatedly find the *critical interval* — the
interval ``[a, b]`` maximizing intensity ``sum of contained work / available
time`` — run its jobs at exactly that intensity under EDF, freeze that time,
and recurse on the rest.

The paper's Most-Critical-First (Algorithm 1) is a multi-link variant of
this procedure; this module is the single-processor substrate, used
directly for single-link DCFS instances and as a cross-check in tests.

Implementation note: instead of the textbook "collapse time and shrink
spans" bookkeeping we keep a *blocked-time* mask in original time; interval
intensity divides by the non-blocked measure.  Both formulations are
equivalent (the blocked measure equals the collapsed length), and the mask
formulation shares its EDF core with Most-Critical-First.

The production :func:`critical_interval_arrays` scores small job sets
with the per-(release, deadline)-pair enumeration on plain Python columns
and larger ones as one NumPy candidate grid with breakpoint arrays and
prefix sums (DESIGN.md Sections 8 and 17);
:func:`critical_interval_reference` retains the enumeration over
:class:`YdsJob` lists and is pinned bit-equal by
``tests/test_perf_kernels.py``.

A job counts as contained in ``[a, b]`` when it is released at or after
``a - eps`` and due at or before ``b + eps``.  Both sides count equality:
at absolute times of 2^14 s and beyond ``eps`` is below half an ulp, so
``b + eps == b`` and only an inclusive count keeps a job inside the
interval that ends at its own deadline.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InfeasibleError, ValidationError
from repro.scheduling.edf import EdfJob, edf_schedule
from repro.scheduling.timeline import BlockedTimeline

__all__ = [
    "YdsJob",
    "YdsResult",
    "yds_schedule",
    "critical_interval",
    "critical_interval_arrays",
    "critical_interval_reference",
]

_EPS = 1e-12

#: Cell budget per chunk of the vectorized (release x deadline) candidate
#: grid; bounds peak memory at a few MB without hurting one-shot batching
#: for realistic per-link job counts.
_GRID_CHUNK_CELLS = 1 << 18

#: At or below this many jobs the list enumeration beats the NumPy grid's
#: call overhead.  Measured on Epoch-DCFS replay link scores in two runs:
#: the lists took 0.89–0.96x the grid's time at 9 jobs and 1.17–1.29x at
#: 10 (``bench_dcfs_scaling.py``, DESIGN.md §17).
_SCALAR_CUTOFF = 9


@dataclass(frozen=True)
class YdsJob:
    """A job with ``work`` units to process inside ``[release, deadline]``."""

    id: int | str
    release: float
    deadline: float
    work: float

    def __post_init__(self) -> None:
        if not self.deadline > self.release:
            raise ValidationError(
                f"job {self.id!r}: deadline must exceed release"
            )
        if not self.work > 0:
            raise ValidationError(f"job {self.id!r}: work must be > 0")


@dataclass(frozen=True)
class YdsResult:
    """Speeds and execution segments chosen by YDS.

    ``speeds[id]`` is the constant speed the job runs at; ``segments[id]``
    are its disjoint execution intervals (the job's work equals speed times
    total segment length).
    """

    speeds: Mapping[int | str, float]
    segments: Mapping[int | str, tuple[tuple[float, float], ...]]

    def energy(self, alpha: float, mu: float = 1.0) -> float:
        """Total energy ``sum_i mu * s_i^alpha * (execution time of i)``.

        Equals ``sum_i mu * w_i * s_i^(alpha-1)`` because execution time is
        ``w_i / s_i``.
        """
        total = 0.0
        for jid, speed in self.speeds.items():
            time = sum(e - s for s, e in self.segments[jid])
            total += mu * speed**alpha * time
        return total

    def completion_time(self, job_id: int | str) -> float:
        return self.segments[job_id][-1][1]


def critical_interval(
    jobs: list[YdsJob], blocked: BlockedTimeline | None = None
) -> tuple[float, float, float, list[YdsJob]]:
    """Find the interval maximizing intensity over the given jobs.

    Returns ``(a, b, intensity, contained_jobs)``; ties broken toward the
    earliest, then shortest, interval for determinism.

    Intensity of ``[a, b]`` is ``sum(work of jobs with span inside [a,b])``
    divided by the *available* (non-blocked) measure of ``[a, b]``.

    Results (values, tie-breaking and infeasibility behavior) are
    bit-identical to :func:`critical_interval_reference`.
    """
    if not jobs:
        raise ValidationError("critical_interval requires at least one job")
    a, b, intensity, contained = critical_interval_arrays(
        [j.release for j in jobs],
        [j.deadline for j in jobs],
        [j.work for j in jobs],
        blocked,
    )
    return a, b, intensity, [jobs[i] for i in contained]


def critical_interval_arrays(
    release: Sequence[float],
    deadline: Sequence[float],
    work: Sequence[float],
    blocked: BlockedTimeline | None = None,
) -> tuple[float, float, float, list[int]]:
    """Column-native critical-interval search.

    ``release``/``deadline``/``work`` are parallel float columns (lists or
    arrays), one entry per job, in the caller's job order
    (Most-Critical-First feeds its per-link lists directly to skip
    rebuilding :class:`YdsJob` lists every round).  Returns ``(a, b,
    intensity, contained)`` where ``contained`` lists the indices of the
    contained jobs sorted by deadline (stable in input order), exactly as
    the reference returns them.

    At most ``_SCALAR_CUTOFF`` jobs take the reference enumeration on the
    Python columns as given; larger sets score the whole ``(release,
    deadline)`` candidate grid in one batched NumPy pass (row-chunked so
    memory stays bounded): contained work via an eligibility-masked prefix
    sum indexed by ``searchsorted`` counts, available time via
    :meth:`BlockedTimeline.overlap_grid`.  Both replicate the reference's
    per-pair float operations, so ties and near-ties resolve identically.
    """
    n = len(deadline)
    if n == 0:
        raise ValidationError("critical_interval requires at least one job")
    if n <= _SCALAR_CUTOFF:
        return _critical_interval_lists(release, deadline, work, blocked)
    release = np.asarray(release, dtype=float)
    deadline = np.asarray(deadline, dtype=float)
    work = np.asarray(work, dtype=float)
    order = np.argsort(deadline, kind="stable")
    dl_sorted = deadline[order]
    wk_sorted = work[order]
    rel_sorted = release[order]
    releases = np.unique(release)
    deadlines = np.unique(deadline)
    # Jobs (in deadline order) with deadline <= b + eps, per candidate b.
    cnt_idx = np.searchsorted(dl_sorted, deadlines + _EPS, side="right")

    best_key: tuple[float, float, float] | None = None
    best: tuple[float, float, float, int] | None = None
    # Row-chunk the (release x deadline) grid: candidate release points are
    # scanned in ascending order, which together with row-major argmax
    # reproduces the reference's first-strictly-greater update rule.
    rows_per_chunk = max(1, _GRID_CHUNK_CELLS // max(1, n))
    for row0 in range(0, releases.size, rows_per_chunk):
        a_vals = releases[row0 : row0 + rows_per_chunk]
        eligible = rel_sorted[None, :] >= (a_vals[:, None] - _EPS)
        # Zeros for ineligible jobs leave the eligible prefix sums exactly
        # equal to the reference's (x + 0.0 == x in IEEE754).
        cumw = np.concatenate(
            (
                np.zeros((a_vals.size, 1)),
                np.cumsum(np.where(eligible, wk_sorted[None, :], 0.0), axis=1),
            ),
            axis=1,
        )
        cumn = np.concatenate(
            (
                np.zeros((a_vals.size, 1), dtype=np.int64),
                np.cumsum(eligible, axis=1),
            ),
            axis=1,
        )
        total_work = cumw[:, cnt_idx]
        counts = cumn[:, cnt_idx]
        valid = (counts > 0) & (deadlines[None, :] > a_vals[:, None])
        if not valid.any():
            continue
        available = deadlines[None, :] - a_vals[:, None]
        if blocked is not None:
            available = available - blocked.overlap_grid(a_vals, deadlines)
        exhausted = valid & (available <= 1e-12)
        if exhausted.any():
            i, j = np.unravel_index(
                int(np.argmax(exhausted)), exhausted.shape
            )
            raise InfeasibleError(
                f"no available time in [{a_vals[i]:g}, {deadlines[j]:g}] "
                f"but jobs remain"
            )
        intensity = np.where(
            valid, total_work / np.where(valid, available, 1.0), -np.inf
        )
        flat = int(np.argmax(intensity))
        i, j = divmod(flat, deadlines.size)
        inten = float(intensity[i, j])
        if inten == -np.inf:
            continue
        a = float(a_vals[i])
        b = float(deadlines[j])
        key = (inten, -a, -(b - a))
        if best_key is None or key > best_key:
            best_key = key
            best = (a, b, inten, int(counts[i, j]))
    assert best is not None
    a, b, inten, count = best
    contained = order[rel_sorted >= a - _EPS][:count]
    return a, b, inten, contained.tolist()


def _critical_interval_lists(
    rel: Sequence[float],
    dl: Sequence[float],
    wk: Sequence[float],
    blocked: BlockedTimeline | None,
) -> tuple[float, float, float, list[int]]:
    """The reference enumeration on plain columns, for small job sets.

    Bit-identical to both the grid above and
    :func:`critical_interval_reference` (same float operations in the same
    order).  Candidates are visited in ascending ``(a, b)`` order, so the
    reference's ``(intensity, -a, -(b - a))`` key improves exactly when
    the intensity strictly does.  The blocked measure is
    :meth:`BlockedTimeline.overlap` split in two: its ``a``-dependent half
    (the segment straddling ``a``) is looked up once per release and its
    ``b``-dependent index once per deadline.
    """
    n = len(dl)
    if n == 1:
        # One job: the only candidate is its own span.
        a, b = rel[0], dl[0]
        available = b - a
        if blocked is not None:
            available -= blocked.overlap(a, b)
        if available <= 1e-12:
            raise InfeasibleError(
                f"no available time in [{a:g}, {b:g}] but jobs remain"
            )
        return a, b, wk[0] / available, [0]
    order = sorted(range(n), key=dl.__getitem__)
    releases = sorted(set(rel))
    deadlines = sorted(set(dl))
    reach = [b + _EPS for b in deadlines]
    starts: Sequence[float] = ()
    if blocked is not None:
        starts, ends, prefix = blocked.columns()
        his = [bisect_left(starts, b) for b in deadlines]
    best: tuple[float, float, float, list[int]] | None = None
    best_intensity = -np.inf
    for a in releases:
        cut = a - _EPS
        eligible = [i for i in order if rel[i] >= cut]
        elig_dl = [dl[i] for i in eligible]
        work_prefix = list(accumulate([wk[i] for i in eligible], initial=0.0))
        if starts:
            lo = bisect_left(starts, a)
            if lo > 0:
                head_end, head_start = ends[lo - 1], max(starts[lo - 1], a)
        for j in range(bisect_right(deadlines, a), len(deadlines)):
            count = bisect_right(elig_dl, reach[j])
            if count == 0:
                continue
            b = deadlines[j]
            available = b - a
            if starts:
                # BlockedTimeline.overlap(a, b), operation for operation.
                total = 0.0
                if lo > 0:
                    total += max(0.0, min(head_end, b) - head_start)
                hi = his[j]
                if hi > lo:
                    total += prefix[hi - 1] - prefix[lo]
                    total += max(
                        0.0, min(ends[hi - 1], b) - max(starts[hi - 1], a)
                    )
                available -= total
            if available <= 1e-12:
                raise InfeasibleError(
                    f"no available time in [{a:g}, {b:g}] but jobs remain"
                )
            intensity = work_prefix[count] / available
            if intensity > best_intensity:
                best_intensity = intensity
                best = (a, b, intensity, eligible[:count])
    assert best is not None
    return best


def critical_interval_reference(
    jobs: list[YdsJob], blocked: BlockedTimeline | None = None
) -> tuple[float, float, float, list[YdsJob]]:
    """Pure-Python brute-force enumeration of all (release, deadline) pairs.

    Retained as the pinning reference for the vectorized
    :func:`critical_interval`; semantics are identical.
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


def yds_schedule(jobs: Iterable[YdsJob]) -> YdsResult:
    """Run the full YDS procedure; always succeeds (speeds are unbounded)."""
    remaining = list(jobs)
    ids = [j.id for j in remaining]
    if len(set(ids)) != len(ids):
        raise ValidationError("YDS job ids must be unique")
    if not remaining:
        raise ValidationError("yds_schedule requires at least one job")

    blocked = BlockedTimeline()
    speeds: dict[int | str, float] = {}
    segments: dict[int | str, tuple[tuple[float, float], ...]] = {}

    while remaining:
        a, b, intensity, critical_jobs = critical_interval(remaining, blocked)
        edf_jobs = [
            EdfJob(
                id=j.id,
                release=j.release,
                deadline=j.deadline,
                duration=j.work / intensity,
            )
            for j in critical_jobs
        ]
        placed = edf_schedule(edf_jobs, blocked=blocked.segments())
        new_blocks: list[tuple[float, float]] = []
        for j in critical_jobs:
            speeds[j.id] = intensity
            segments[j.id] = tuple(placed[j.id])
            new_blocks.extend(placed[j.id])
        blocked.add_many(new_blocks)
        critical_ids = {j.id for j in critical_jobs}
        remaining = [j for j in remaining if j.id not in critical_ids]

    return YdsResult(speeds=speeds, segments=segments)
