"""Piecewise-constant functions of time.

Link rates ``x_e(t)`` produced by every algorithm in this library are
piecewise constant (rates only change at flow releases, deadlines, EDF
preemption points, or interval boundaries).  :class:`PiecewiseConstant`
supports exact construction by summing weighted indicator segments and
exact integration of arbitrary pointwise transforms — which is how schedule
energy ``\\int f(x_e(t)) dt`` is computed without numerical quadrature.

:class:`PiecewiseConstant` is array-backed: compilation and integration
run as NumPy breakpoint/prefix-sum operations (see DESIGN.md Section 8),
while per-slot accumulation uses unbuffered ``np.add.at`` in segment order
so the compiled values are bit-identical to the historical per-slot Python
loop.  :class:`BlockedTimeline` answers its measure queries from Python
lists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "PiecewiseConstant",
    "BlockedTimeline",
    "merge_segments",
    "overlap_length",
]

#: A right-open constant piece ``(start, end, value)``.
Piece = tuple[float, float, float]


def overlap_length(
    segments: Sequence[tuple[float, float]], start: float, end: float
) -> float:
    """Total measure of ``segments`` intersected with ``[start, end]``.

    ``segments`` must be disjoint; order does not matter.
    """
    total = 0.0
    for a, b in segments:
        total += max(0.0, min(b, end) - max(a, start))
    return total


def merge_segments(
    segments: Iterable[tuple[float, float]], tol: float = 1e-12
) -> list[tuple[float, float]]:
    """Union of intervals, returned sorted and disjoint.

    Adjacent or overlapping intervals (within ``tol``) are coalesced;
    empty and inverted intervals are dropped.  Tolerance semantics
    (pinned by the brute-force Hypothesis suite in
    ``tests/test_timeline.py``): ``tol`` exists only to close float-noise
    *gaps* between segments, so the total measure of the result never
    undershoots the exact union measure and overshoots it by at most
    ``tol`` per coalesced gap.  In particular, sub-``tol`` slivers are
    kept — dropping them (as an earlier revision did) made
    :meth:`BlockedTimeline.available` over-report free time by the summed
    sliver measure under many tiny EDF segments.
    """
    ordered = sorted((a, b) for a, b in segments if b > a)
    merged: list[tuple[float, float]] = []
    for a, b in ordered:
        if merged and a <= merged[-1][1] + tol:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


class BlockedTimeline:
    """Sorted disjoint blocked (reserved) time segments.

    Used by the YDS-family algorithms to mark time already committed to
    earlier critical intervals.  Supports O(log n) overlap-measure queries
    via prefix sums, kept as plain Python lists: the scalar queries run on
    them directly, and the batched critical-interval grid flattens them
    through :meth:`columns`.

    Insertion is a splice.  :func:`merge_segments` (at its default
    ``tol``) leaves every stored gap wider than ``tol``, so every stored
    segment before the one preceding the first incoming block is final.
    :meth:`add_many` sorts only the incoming blocks, re-merges them with
    the stored tail from that segment on, and rebuilds starts, ends and
    prefix sums from there: O(new log new + tail) rather than a re-sort
    and rebuild of the whole list.  Bit-identical to re-merging the
    whole raw list and rebuilding every column — pinned by the
    Hypothesis suite in ``tests/test_timeline.py``.
    """

    def __init__(self) -> None:
        self._segments: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._prefix: list[float] = [0.0]

    def add_many(self, segments: Iterable[tuple[float, float]]) -> None:
        """Insert segments (merged with the existing reservation set)."""
        incoming = sorted((a, b) for a, b in segments if b > a)
        if not incoming:
            return  # re-merging an already merged set changes nothing
        # The stored segment just before the first incoming start may
        # absorb it; every earlier one ends more than ``tol`` before that.
        keep = max(bisect_left(self._starts, incoming[0][0]) - 1, 0)
        tail = merge_segments(self._segments[keep:] + incoming)
        self._segments[keep:] = tail
        self._starts[keep:] = [s for s, _ in tail]
        self._ends[keep:] = [e for _, e in tail]
        # A strictly sequential running sum, the historical loop's float
        # additions in its order, continued from the kept prefix.
        self._prefix[keep:] = accumulate(
            (e - s for s, e in tail), initial=self._prefix[keep]
        )

    def columns(self) -> tuple[list[float], list[float], list[float]]:
        """``(starts, ends, prefix)``: the merged segments' starts and ends
        and the running blocked measure before each (``prefix[i]`` covers
        segments ``0..i-1``).

        These are the inputs of :meth:`overlap`, exposed for scorers that
        hoist its per-``a`` half out of a loop over ``b`` or repeat it over
        a whole grid.  They are the timeline's own lists, which
        :meth:`add_many` updates in place: a view always reads the current
        reservations, so copy it to keep a snapshot.  Do not mutate.
        """
        return self._starts, self._ends, self._prefix

    def overlap(self, a: float, b: float) -> float:
        """Measure of blocked time inside ``[a, b]``."""
        if not self._segments or b <= a:
            return 0.0
        starts, ends = self._starts, self._ends
        lo = bisect_left(starts, a)
        total = 0.0
        if lo > 0:
            total += max(0.0, min(ends[lo - 1], b) - max(starts[lo - 1], a))
        hi = bisect_left(starts, b)
        if hi > lo:
            # Segments lo..hi-1 start inside [a, b); all but possibly the
            # last end inside as well (prefix sums cover them exactly).
            total += self._prefix[hi - 1] - self._prefix[lo]
            total += max(0.0, min(ends[hi - 1], b) - max(starts[hi - 1], a))
        return total

    def available(self, a: float, b: float) -> float:
        """Non-blocked measure of ``[a, b]`` (the paper's ``a ~ b``)."""
        return (b - a) - self.overlap(a, b)

    def segments(self) -> tuple[tuple[float, float], ...]:
        return tuple(self._segments)

    def __bool__(self) -> bool:
        return bool(self._segments)


class PiecewiseConstant:
    """A piecewise-constant function built by summing constant segments.

    The function is 0 outside every added segment.  Construction is lazy:
    segments accumulate and the breakpoint representation is compiled on
    first query.
    """

    def __init__(self) -> None:
        self._pending: list[Piece] = []
        self._points: list[float] | None = None
        self._values: list[float] | None = None
        self._points_arr: np.ndarray | None = None
        self._values_arr: np.ndarray | None = None

    def add(self, start: float, end: float, value: float) -> None:
        """Add ``value`` on ``[start, end)``; zero-length segments ignored."""
        if end < start:
            raise ValidationError(f"segment end {end} precedes start {start}")
        if end > start and value != 0.0:
            self._pending.append((start, end, value))
            self._points = None
            self._points_arr = None

    def _compile(self) -> tuple[list[float], list[float]]:
        if self._points is not None:
            assert self._values is not None
            return self._points, self._values
        points_arr, values_arr = self._compile_arrays()
        self._points = points_arr.tolist()
        self._values = values_arr.tolist()
        return self._points, self._values

    def _compile_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints and per-slot values as float64 arrays.

        Slot values accumulate via unbuffered ``np.add.at`` with indices
        emitted in segment order, reproducing the historical per-slot
        Python loop bit for bit (float addition order is preserved).
        """
        if self._points_arr is not None:
            assert self._values_arr is not None
            return self._points_arr, self._values_arr
        if not self._pending:
            self._points_arr = np.empty(0)
            self._values_arr = np.empty(0)
            return self._points_arr, self._values_arr
        starts = np.array([s for s, _, _ in self._pending], dtype=float)
        ends = np.array([e for _, e, _ in self._pending], dtype=float)
        vals = np.array([v for _, _, v in self._pending], dtype=float)
        points = np.unique(np.concatenate((starts, ends)))
        values = np.zeros(max(0, points.size - 1))
        first = np.searchsorted(points, starts)
        last = np.searchsorted(points, ends)
        counts = last - first
        # Concatenated ranges first[i]..last[i] for every segment i.
        reps = np.repeat(np.arange(starts.size), counts)
        slot_base = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slots = first[reps] + (np.arange(counts.sum()) - slot_base[reps])
        np.add.at(values, slots, vals[reps])
        self._points_arr = points
        self._values_arr = values
        return points, values

    @property
    def breakpoints(self) -> tuple[float, ...]:
        points, _ = self._compile()
        return tuple(points)

    def pieces(self) -> tuple[Piece, ...]:
        """Compiled ``(start, end, value)`` pieces, including zero pieces
        between non-adjacent segments."""
        points, values = self._compile()
        return tuple(
            (a, b, v) for a, b, v in zip(points, points[1:], values)
        )

    def __call__(self, t: float) -> float:
        """Value at ``t`` (right-continuous; 0 outside the support)."""
        points, values = self._compile()
        if not points or t < points[0] or t >= points[-1]:
            return 0.0
        i = bisect_right(points, t) - 1
        if i >= len(values):
            return 0.0
        return values[i]

    def window_integral(
        self,
        start: float,
        end: float,
        transform: Callable[[float], float] | None = None,
    ) -> float:
        """``\\int_start^end transform(x(t)) dt``, exactly.

        The function is 0 outside its support, and ``transform`` is never
        applied to the zero value (all power transforms here map 0 to 0).
        """
        if end < start:
            raise ValidationError(f"window end {end} precedes start {start}")
        points, values = self._compile()
        total = 0.0
        for a, b, v in zip(points, points[1:], values):
            lo, hi = max(a, start), min(b, end)
            if hi > lo and v != 0.0:
                y = transform(v) if transform is not None else v
                total += y * (hi - lo)
        return total

    def integrate(self, transform: Callable[[float], float] | None = None) -> float:
        """``\\int transform(x(t)) dt`` over the support, exactly.

        With ``transform=None`` integrates the function itself.  Because the
        function is constant on each piece, the integral is a finite sum —
        this is how convex link powers are integrated without error.

        Note: ``transform`` is only applied where the function has support;
        callers must ensure ``transform(0) == 0`` semantics are handled
        separately (all power functions here satisfy ``f(0) = 0``).
        """
        points, values = self._compile_arrays()
        if values.size == 0:
            return 0.0
        if transform is None:
            return float(np.dot(values, np.diff(points)))
        total = 0.0
        for a, b, v in zip(points.tolist(), points[1:].tolist(), values.tolist()):
            total += transform(v) * (b - a)
        return total

    def integrate_power(self, alpha: float, mu: float = 1.0) -> float:
        """``\\int mu * x(t)**alpha dt`` as one vectorized pass.

        Equivalent to ``integrate(power.dynamic_power)`` for the power-law
        cost (which maps non-positive rates to 0), without the per-piece
        Python callback — the hot path of :meth:`Schedule.energy`.
        """
        points, values = self._compile_arrays()
        if values.size == 0:
            return 0.0
        positive = values > 0.0
        if not positive.any():
            return 0.0
        v = values[positive]
        w = np.diff(points)[positive]
        return float(np.dot(mu * np.power(v, alpha), w))

    def maximum(self) -> float:
        """Largest value attained (0 for the empty function)."""
        _, values = self._compile_arrays()
        if values.size == 0:
            return 0.0
        return float(values.max())

    def support_length(self, tol: float = 0.0) -> float:
        """Total time where the function exceeds ``tol``."""
        points, values = self._compile_arrays()
        if values.size == 0:
            return 0.0
        mask = values > tol
        return float(np.diff(points)[mask].sum())

    def is_empty(self) -> bool:
        return self.support_length() == 0.0
