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

Two production scorers share one dispatch rule.  Small work takes the
per-(release, deadline)-pair enumeration on plain Python columns; larger
work takes one NumPy candidate grid with breakpoint arrays and prefix
sums, which :func:`critical_interval_batch` runs over many links' job
sets at once (DESIGN.md Sections 8, 17 and 22).
:func:`critical_interval_arrays` scores one job set the same way.
The brute-force enumeration over :class:`YdsJob` lists,
``critical_interval_reference``, is their oracle in
``tests/oracles/dcfs.py``; ``tests/test_perf_kernels.py`` pins them to
it bit for bit.

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
    "contained_indices",
    "critical_interval_arrays",
    "critical_interval_batch",
]

_EPS = 1e-12

#: Cell budget per chunk of the vectorized (release x deadline) candidate
#: grid; bounds peak memory at a few MB without hurting one-shot batching
#: for realistic per-link job counts.
_GRID_CHUNK_CELLS = 1 << 18

#: Batches whose summed squared job counts fall below this take the list
#: enumeration link by link; from it on one batched NumPy grid pass wins.
#: Measured on the batches Epoch-DCFS replay windows re-score
#: (``bench_dcfs_scaling.py::test_batch_cutoff_crossover``, DESIGN.md
#: §22): the crossover fell between 64 and 256.  A lone job set takes
#: the lists up to 11 jobs.
_BATCH_WORK_CUTOFF = 128

#: A batch's largest link is scored alone once its excess job count over
#: the runner-up, times the jobs of the rest of the batch, passes this:
#: padding every other link to it would then cost more grid cells than a
#: second pass's fixed NumPy overhead (DESIGN.md §22).
_PAD_LIMIT = 2048


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
    bit-identical to the oracle ``critical_interval_reference``
    (``tests/oracles/dcfs.py``).
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


def _job_count(
    release: Sequence[float], deadline: Sequence[float], work: Sequence[float]
) -> int:
    """Number of jobs in one link's columns, which must be equally long."""
    n = len(deadline)
    if len(release) != n or len(work) != n:
        raise ValidationError(
            f"critical interval columns differ in length: {len(release)} "
            f"releases, {n} deadlines, {len(work)} works"
        )
    if n == 0:
        raise ValidationError("critical_interval requires at least one job")
    return n


def contained_indices(
    release: Sequence[float], deadline: Sequence[float], a: float, count: int
) -> list[int]:
    """The jobs a scored critical interval ``[a, b]`` contains.

    ``count`` is the interval's job count as :func:`critical_interval_batch`
    returns it.  The result lists the indices of the jobs released at or
    after ``a - eps``, sorted by deadline (stable in input order), first
    ``count`` of them: the reference's contained jobs exactly.
    """
    cut = a - _EPS
    order = sorted(range(len(deadline)), key=deadline.__getitem__)
    return [i for i in order if release[i] >= cut][:count]


def critical_interval_arrays(
    release: Sequence[float],
    deadline: Sequence[float],
    work: Sequence[float],
    blocked: BlockedTimeline | None = None,
) -> tuple[float, float, float, list[int]]:
    """Column-native critical-interval search for one job set.

    ``release``/``deadline``/``work`` are parallel float columns (lists or
    arrays) of equal length, one entry per job, in the caller's job
    order.  Returns ``(a, b, intensity, contained)`` where ``contained``
    lists the indices of the contained jobs sorted by deadline (stable in
    input order), exactly as the reference returns them.

    A set of ``n`` jobs with ``n**2`` below ``_BATCH_WORK_CUTOFF`` takes
    the reference enumeration on the Python columns as given; a larger
    one is a batch of one link for :func:`_critical_interval_grid`.
    """
    n = _job_count(release, deadline, work)
    if n * n < _BATCH_WORK_CUTOFF:
        a, b, intensity, count = _critical_interval_lists(
            release, deadline, work, blocked
        )
    else:
        score = _critical_interval_grid([(release, deadline, work, blocked)])[0]
        if isinstance(score, InfeasibleError):
            raise score
        a, b, intensity, count = score
    return a, b, intensity, contained_indices(release, deadline, a, count)


#: One link's scorer input: ``(release, deadline, work, blocked)``.
LinkColumns = tuple[
    Sequence[float], Sequence[float], Sequence[float], BlockedTimeline | None
]


def critical_interval_batch(
    links: Sequence[LinkColumns],
) -> list[tuple[float, float, float, int] | None]:
    """Score the critical intervals of many job sets in one pass.

    ``links`` holds one ``(release, deadline, work, blocked)`` tuple per
    link, the arguments of :func:`critical_interval_arrays`.  Returns, per
    link, ``(a, b, intensity, count)``, bit for bit the values
    :func:`critical_interval_arrays` returns (:func:`contained_indices`
    lists the ``count`` contained jobs), or ``None`` where it would raise
    :class:`InfeasibleError` because some candidate interval that holds
    jobs has no available time.

    The batch's work is the sum of its job counts squared.  Below
    ``_BATCH_WORK_CUTOFF`` each link takes the list enumeration; otherwise
    the links share one :func:`_critical_interval_grid` pass.  Padding
    every link to the largest would waste most of that pass on a batch
    with one much larger link, so while the largest link's excess over
    the runner-up, times the jobs of the rest, exceeds ``_PAD_LIMIT``, the
    largest is scored alone.
    """
    sizes = [_job_count(rel, dl, wk) for rel, dl, wk, _ in links]
    scores: list[tuple[float, float, float, int] | None] = [None] * len(links)
    order = sorted(range(len(links)), key=sizes.__getitem__, reverse=True)
    rest = sum(sizes)
    groups = []
    for heavy, runner_up in zip(order, order[1:]):
        rest -= sizes[heavy]
        if (sizes[heavy] - sizes[runner_up]) * rest <= _PAD_LIMIT:
            break
        groups.append([heavy])
    groups.append(order[len(groups) :])
    for group in groups:
        if sum(sizes[i] ** 2 for i in group) < _BATCH_WORK_CUTOFF:
            for i in group:
                try:
                    scores[i] = _critical_interval_lists(*links[i])
                except InfeasibleError:
                    pass
            continue
        grid = _critical_interval_grid([links[i] for i in group])
        for i, score in zip(group, grid):
            if not isinstance(score, InfeasibleError):
                scores[i] = score
    return scores


def _keys(link: np.ndarray | None, values: np.ndarray, single: bool) -> np.ndarray:
    """Sort keys ordering ``(link, value)`` pairs lexicographically.

    NumPy orders complex numbers by real part, then imaginary part, so a
    complex key carries the link index and the time exactly, and one
    ``searchsorted`` bisects every link's own sorted run at once.  A
    batch of one link keys on the times alone.
    """
    if single:
        return values
    keys = np.empty(values.size, dtype=complex)
    keys.real = link
    keys.imag = values
    return keys


def _critical_interval_grid(
    links: Sequence[LinkColumns],
) -> list[tuple[float, float, float, int] | InfeasibleError]:
    """Every link's ``(release x deadline)`` candidate grid in one pass.

    Rows are ``(link, a)`` pairs, one per distinct release of a link;
    columns are that link's distinct deadlines ``b`` in ascending order,
    padded to the batch's widest link by repeating its last one (a
    repeated candidate never beats its first copy).  Per row, an
    eligibility mask turns one ``cumsum`` over the link's deadline-sorted
    works into the reference's contained-work prefix (adding 0.0 for
    ineligible jobs is exact in IEEE754), and the jobs due by ``b + eps``
    index it.  The blocked measure repeats :meth:`BlockedTimeline.overlap`
    operation for operation on the link's own segments.  Row-major
    ``argmax`` over ascending ``a`` and ``b`` picks each link's first
    strictly greatest intensity, the reference's tie-break.  Rows are
    chunked so a chunk stays near ``_GRID_CHUNK_CELLS`` cells.

    Returns, per link, ``(a, b, intensity, count)``, or the
    :class:`InfeasibleError` the reference raises at the link's first
    candidate with jobs but no available time.
    """
    num = len(links)
    single = num == 1
    if single:
        release, deadline, work, _ = links[0]
        rel = np.asarray(release, dtype=float)
        dl = np.asarray(deadline, dtype=float)
        wk = np.asarray(work, dtype=float)
        sizes = [dl.size]
        job_link = None
    else:
        rel = np.array([x for column, _, _, _ in links for x in column], dtype=float)
        dl = np.array([x for _, column, _, _ in links for x in column], dtype=float)
        wk = np.array([x for _, _, column, _ in links for x in column], dtype=float)
        sizes = [len(column) for _, column, _, _ in links]
        job_link = np.repeat(np.arange(num), sizes)
    depth = max(sizes)
    job_start = np.zeros(num + 1, dtype=np.intp)
    np.cumsum(sizes, out=job_start[1:])

    # Jobs in deadline order within each link, stable in input order
    # (``job_link`` runs link by link, so the sort keeps it).
    due_key = _keys(job_link, dl, single)
    order = np.argsort(due_key, kind="stable")
    due_key = due_key[order]
    rel_sorted, wk_sorted = rel[order], wk[order]

    # Columns: each link's distinct deadlines, and the index one past
    # its last job due by b + eps (the reference's inclusive bisect).
    first = np.empty(due_key.size, dtype=bool)
    first[0] = True
    np.not_equal(due_key[1:], due_key[:-1], out=first[1:])
    col_key = due_key[first]
    col_b = col_key if single else col_key.imag
    col_link = None if single else job_link[first]
    reach = np.searchsorted(
        due_key, _keys(col_link, col_b + _EPS, single), side="right"
    )

    # Rows: each link's distinct releases, ascending.
    row_key = np.sort(_keys(job_link, rel, single))
    keep = np.empty(row_key.size, dtype=bool)
    keep[0] = True
    np.not_equal(row_key[1:], row_key[:-1], out=keep[1:])
    row_key = row_key[keep]
    rows = row_key.size
    if single:
        row_a = row_key
        row_link = np.zeros(rows, dtype=np.intp)
        col_start = np.array([0, col_b.size])
    else:
        row_a = row_key.imag
        row_link = row_key.real.astype(np.intp)
        col_start = np.searchsorted(col_link, np.arange(num + 1))
    width = int(np.max(np.diff(col_start)))

    # Blocked segments of every link, flattened; ``lo`` and ``hi`` are
    # BlockedTimeline.overlap's bisects of a and b.
    timelines = [
        blocked.columns() if blocked is not None else ((), (), (0.0,))
        for _, _, _, blocked in links
    ]
    nseg = [len(starts) for starts, _, _ in timelines]
    has_blocks = any(nseg)
    if has_blocks:
        starts = np.array([x for column, _, _ in timelines for x in column])
        ends = np.array([x for _, column, _ in timelines for x in column])
        prefix = np.array([x for _, _, column in timelines for x in column])
        seg_start = np.zeros(num + 1, dtype=np.intp)
        np.cumsum(nseg, out=seg_start[1:])
        seg_link = None if single else np.repeat(np.arange(num), nseg)
        seg_key = _keys(seg_link, starts, single)
        lo = np.searchsorted(seg_key, row_key, side="left")
        hi = np.searchsorted(seg_key, col_key, side="left")
        # The segment straddling a (index lo - 1, when the link has one)
        # starts before a, so overlap's max(start, a) is a; a -inf end
        # makes a missing one's measure exactly 0.0.
        head_end = np.where(lo > seg_start[row_link], ends[lo - 1], -np.inf)
        row_prefix = prefix[lo + row_link]
        # The last segment starting before b (index hi - 1) starts at or
        # after a whenever it lies past lo, so its measure depends on b
        # alone.  Prefix sums hold one more entry per link.
        last = hi - 1
        tail = np.maximum(0.0, np.minimum(ends[last], col_b) - starts[last])
        col_prefix = prefix[last if single else last + col_link]

    row_best = np.empty(rows)
    row_b = np.empty(rows)
    row_count = np.empty(rows, dtype=np.intp)
    row_failed = failed_col = None
    lanes = np.arange(width)
    slots = np.arange(depth)
    step = max(1, _GRID_CHUNK_CELLS // (depth + width))
    for r0 in range(0, rows, step):
        chunk = slice(r0, r0 + step)
        a = row_a[chunk]
        a_col = a[:, None]
        link_r = row_link[chunk]
        if single:
            col_idx = lanes[None, :]
            job_idx = slots[None, :]
        else:
            col_idx = np.minimum(
                col_start[link_r][:, None] + lanes,
                col_start[link_r + 1][:, None] - 1,
            )
            # Padding repeats the link's last job.  No due count reaches
            # past the link's jobs, and a row's first eligible job is at
            # the latest its own release's, so no pad is ever read.
            job_idx = np.minimum(
                job_start[link_r][:, None] + slots,
                job_start[link_r + 1][:, None] - 1,
            )
        b = col_b[col_idx]
        eligible = rel_sorted[job_idx] >= (a - _EPS)[:, None]
        cumw = np.zeros((a.size, depth + 1))
        np.cumsum(
            np.where(eligible, wk_sorted[job_idx], 0.0), axis=1, out=cumw[:, 1:]
        )
        due = reach[col_idx] - job_start[link_r][:, None]
        # A candidate holds jobs when the first eligible job (in deadline
        # order) is due by b + eps; every row has one, its own release's.
        valid = (due > np.argmax(eligible, axis=1)[:, None]) & (b > a_col)
        total_work = np.take(
            cumw, (np.arange(a.size) * (depth + 1))[:, None] + due
        )
        available = b - a_col
        if has_blocks:
            # BlockedTimeline.overlap(a, b), operation for operation.
            head = np.maximum(
                0.0, np.minimum(head_end[chunk][:, None], b) - a_col
            )
            bulk = col_prefix[col_idx] - row_prefix[chunk][:, None]
            available = available - np.where(
                hi[col_idx] > lo[chunk][:, None],
                (head + bulk) + tail[col_idx],
                head,
            )
        pick = np.arange(a.size)
        exhausted = valid & (available <= 1e-12)
        if exhausted.any():
            if row_failed is None:
                row_failed = np.zeros(rows, dtype=bool)
                failed_col = np.zeros(rows, dtype=np.intp)
            row_failed[chunk] = exhausted.any(axis=1)
            cols = np.argmax(exhausted, axis=1)
            failed_col[chunk] = cols if single else col_idx[pick, cols]
            valid &= ~exhausted
        intensity = np.where(
            valid, total_work / np.where(valid, available, 1.0), -np.inf
        )
        cols = np.argmax(intensity, axis=1)
        row_best[chunk] = intensity[pick, cols]
        chosen = cols if single else col_idx[pick, cols]
        row_b[chunk] = col_b[chosen]
        row_count[chunk] = np.count_nonzero(
            eligible & (slots < (reach[chosen] - job_start[link_r])[:, None]),
            axis=1,
        )

    # Per link: the greatest row maximum, and the first row reaching it.
    row_start = np.searchsorted(row_link, np.arange(num))
    best = np.maximum.reduceat(row_best, row_start)
    first_row = np.minimum.reduceat(
        np.where(row_best == best[row_link], np.arange(rows), rows), row_start
    )
    scores: list[tuple[float, float, float, int] | InfeasibleError] = list(
        zip(
            row_a[first_row].tolist(),
            row_b[first_row].tolist(),
            best.tolist(),
            row_count[first_row].tolist(),
        )
    )
    if row_failed is not None:
        failed = np.logical_or.reduceat(row_failed, row_start)
        for link in np.flatnonzero(failed).tolist():
            row = row_start[link] + int(np.argmax(row_failed[row_start[link] :]))
            scores[link] = InfeasibleError(
                f"no available time in [{row_a[row]:g}, "
                f"{col_b[failed_col[row]]:g}] but jobs remain"
            )
    return scores


def _critical_interval_lists(
    rel: Sequence[float],
    dl: Sequence[float],
    wk: Sequence[float],
    blocked: BlockedTimeline | None,
) -> tuple[float, float, float, int]:
    """The reference enumeration on plain columns, for small job sets.

    Returns ``(a, b, intensity, count)`` like
    :func:`critical_interval_batch`.  Bit-identical to both the grid
    above and the oracle ``critical_interval_reference`` (same float
    operations in the same order).  Candidates are visited in ascending ``(a, b)`` order, so the
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
        return a, b, wk[0] / available, 1
    order = sorted(range(n), key=dl.__getitem__)
    releases = sorted(set(rel))
    deadlines = sorted(set(dl))
    reach = [b + _EPS for b in deadlines]
    starts: Sequence[float] = ()
    if blocked is not None:
        starts, ends, prefix = blocked.columns()
        his = [bisect_left(starts, b) for b in deadlines]
    best: tuple[float, float, float, int] | None = None
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
                best = (a, b, intensity, count)
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
