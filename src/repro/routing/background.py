"""First-class per-edge piecewise-constant background-load profiles.

The streaming replay carries reservations committed by earlier windows
into every later scheduling decision.  A :class:`BackgroundProfile` is
one window's view of that committed load as an explicit step function
per edge, built once per window by :meth:`~repro.traces.replay.
WindowAccountant.background_profile` and threaded through every
consumer — :class:`~repro.traces.policies.WindowContext`,
:class:`~repro.routing.fastpath.LoadLedger`, the per-interval relaxation
sweep in :mod:`repro.core.relaxation` (each elementary interval is
charged the profile's exact mean over *its own* bounds, never a window
average), and the sharded service's boundary-load exchange.  It is the
only form in which a window's committed load reaches a policy.

The class is plain data (a breakpoint vector plus a dense step matrix),
picklable as-is — the sharded engine ships shard-restricted profiles
over worker pipes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["BackgroundProfile"]


class BackgroundProfile:
    """Per-edge piecewise-constant committed loads over a window span.

    Parameters
    ----------
    num_edges:
        Size of the dense edge-id space the loads are indexed by.
    start, end:
        The replay window ``[start, end)`` this profile was built for.
        The profile itself may extend beyond ``end`` (committed pieces
        outlive their window; elementary intervals of a window's flows
        routinely reach past its boundary) — its full support is
        ``[times[0], times[-1])`` with ``times[0] == start`` and
        ``times[-1] >= end``.  Queries outside the support read zero.
    times:
        Strictly increasing breakpoints, ``float64[K + 1]``.
    loads:
        ``float64[K, num_edges]``; ``loads[k]`` is the per-edge committed
        rate on ``[times[k], times[k + 1])``.
    """

    __slots__ = ("num_edges", "start", "end", "times", "loads", "_cum")

    def __init__(
        self,
        num_edges: int,
        start: float,
        end: float,
        times,
        loads,
    ) -> None:
        times = np.asarray(times, dtype=float)
        loads = np.asarray(loads, dtype=float)
        if not end > start:
            raise ValidationError(
                f"profile window [{start}, {end}) must have positive length"
            )
        if times.ndim != 1 or len(times) < 2:
            raise ValidationError("profile needs at least two breakpoints")
        if np.any(np.diff(times) <= 0.0):
            raise ValidationError("profile breakpoints must strictly increase")
        if times[0] != start or times[-1] < end:
            raise ValidationError(
                f"profile support [{times[0]}, {times[-1]}] must start at "
                f"{start} and reach {end}"
            )
        if loads.shape != (len(times) - 1, num_edges):
            raise ValidationError(
                f"loads must have shape ({len(times) - 1}, {num_edges}), "
                f"got {loads.shape}"
            )
        if np.any(loads < 0.0):
            raise ValidationError("profile loads must be >= 0")
        self.num_edges = num_edges
        self.start = float(start)
        self.end = float(end)
        self.times = times
        self.loads = loads
        self._cum: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    def _cumulative(self) -> np.ndarray:
        """``F[k] = per-edge integral of the profile over [times[0],
        times[k])`` — computed lazily, reused by every query."""
        cum = self._cum
        if cum is None:
            lengths = np.diff(self.times)
            cum = np.zeros((len(self.times), self.num_edges))
            np.cumsum(self.loads * lengths[:, None], axis=0, out=cum[1:])
            self._cum = cum
        return cum

    def _value_at(self, t: float) -> np.ndarray:
        """``F(t)`` — per-edge integral from the profile origin to ``t``
        (clamped to the support; the profile is zero outside it)."""
        times = self.times
        t = min(max(t, float(times[0])), float(times[-1]))
        j = min(
            int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2
        )
        cum = self._cumulative()
        return cum[j] + (t - times[j]) * self.loads[j]

    def integral(self, t0: float, t1: float) -> np.ndarray:
        """Per-edge integral of the committed rate over ``[t0, t1)``."""
        if not t1 > t0:
            raise ValidationError(
                f"integral window [{t0}, {t1}) must have positive length"
            )
        return self._value_at(t1) - self._value_at(t0)

    def mean_over(self, t0: float, t1: float) -> np.ndarray:
        """Per-edge mean committed rate over ``[t0, t1)``.

        This is the per-elementary-interval view the relaxation sweep
        charges: exact for any query, not a window-wide average.  Time
        outside the support counts as zero load.
        """
        out = self.integral(t0, t1) / (t1 - t0)
        # Monotone fp accumulation keeps the difference >= 0 up to
        # rounding; clamp so downstream >= 0 validation never trips.
        np.maximum(out, 0.0, out=out)
        return out

    def restrict(self, edge_map) -> "BackgroundProfile":
        """The profile seen through ``edge_map`` (shard-local edge ids to
        parent ids) — the sharded service's boundary-load exchange."""
        edge_map = np.asarray(edge_map, dtype=np.int64)
        return BackgroundProfile(
            len(edge_map),
            self.start,
            self.end,
            self.times,
            self.loads[:, edge_map].copy(),
        )

    @property
    def num_pieces(self) -> int:
        return len(self.times) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return (
            f"BackgroundProfile(window=[{self.start:g}, {self.end:g}), "
            f"support_end={self.times[-1]:g}, pieces={self.num_pieces}, "
            f"edges={self.num_edges})"
        )
