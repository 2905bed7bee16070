"""Interval structure induced by flow release times and deadlines.

Section V-A of the paper defines ``T = {t_0, ..., t_K}`` as the sorted set
of all release times and deadlines, ``I_k = [t_{k-1}, t_k]`` the induced
intervals, ``beta_k = |I_k| / (t_K - t_0)`` the fractional lengths, and
``lambda = (t_K - t_0) / min_k |I_k|`` the granularity factor that shows up
in Random-Schedule's approximation ratio.

Within one interval the set of active flows does not change, which is what
lets Random-Schedule decompose the relaxation into per-interval fractional
multi-commodity flow problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ValidationError
from repro.flows.flow import Flow, FlowSet

__all__ = ["Interval", "TimeGrid"]


@dataclass(frozen=True)
class Interval:
    """One elementary interval ``I_k = [start, end]`` with 1-based index ``k``."""

    index: int
    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"I_{self.index}[{self.start:g}, {self.end:g}]"


class TimeGrid:
    """The breakpoint grid of a :class:`FlowSet` and its derived quantities."""

    def __init__(self, flows: FlowSet) -> None:
        self._flows = flows
        points = flows.breakpoints()
        if len(points) < 2:
            raise ValidationError(
                "degenerate time grid: all releases and deadlines coincide"
            )
        self._points: tuple[float, ...] = points
        self._intervals: tuple[Interval, ...] = tuple(
            Interval(index=k + 1, start=a, end=b)
            for k, (a, b) in enumerate(zip(points, points[1:]))
        )
        # Flows active throughout each interval, precomputed once: a flow is
        # active in I_k iff its span contains I_k entirely (spans start and
        # end on breakpoints, so partial overlap is impossible).
        self._active: tuple[tuple[Flow, ...], ...] = tuple(
            flows.active_in(iv.start, iv.end) for iv in self._intervals
        )

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """``T = {t_0, ..., t_K}``."""
        return self._points

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """``I_1, ..., I_K`` in order."""
        return self._intervals

    @property
    def num_intervals(self) -> int:
        return len(self._intervals)

    @property
    def horizon(self) -> tuple[float, float]:
        return (self._points[0], self._points[-1])

    @property
    def horizon_length(self) -> float:
        return self._points[-1] - self._points[0]

    @property
    def min_interval_length(self) -> float:
        return min(iv.length for iv in self._intervals)

    @property
    def lam(self) -> float:
        """``lambda = (t_K - t_0) / min_k |I_k|`` (Theorem 6 factor)."""
        return self.horizon_length / self.min_interval_length

    def beta(self, interval: Interval) -> float:
        """``beta_k = |I_k| / (t_K - t_0)``."""
        return interval.length / self.horizon_length

    def active_flows(self, interval: Interval) -> tuple[Flow, ...]:
        """Flows active throughout ``interval`` (constant within it)."""
        return self._active[interval.index - 1]

    def intervals_of(self, flow: Flow) -> tuple[Interval, ...]:
        """All intervals contained in ``flow``'s span, in order.

        Their lengths sum to exactly ``d_i - r_i`` because spans start and
        end on grid breakpoints.
        """
        return tuple(
            iv
            for iv in self._intervals
            if flow.covers_interval(iv.start, iv.end)
        )

    def interval_at(self, t: float) -> Interval:
        """The interval containing time ``t`` (right-open convention except
        the last interval, which is closed)."""
        first, last = self.horizon
        if not first <= t <= last:
            raise ValidationError(f"time {t} outside horizon [{first}, {last}]")
        for iv in self._intervals:
            if t < iv.end or iv is self._intervals[-1]:
                return iv
        raise AssertionError("unreachable")  # pragma: no cover

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeGrid(K={self.num_intervals}, horizon={self.horizon}, "
            f"lambda={self.lam:.3g})"
        )
