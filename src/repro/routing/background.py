"""First-class per-edge piecewise-constant background-load profiles.

The streaming replay carries reservations committed by earlier windows
into every later scheduling decision.  A :class:`BackgroundProfile` is
one window's view of that committed load as an explicit step function
per edge, built on demand by :meth:`~repro.traces.replay.
WindowAccountant.background_profile` and read through
:attr:`~repro.traces.policies.WindowContext.background` by the
per-interval relaxation sweep in :mod:`repro.core.relaxation` (each
elementary interval is charged the profile's exact mean over *its own*
bounds, never a window average) and by the sharded service's
boundary-load exchange.  Consumers read a window's spans in one
:meth:`BackgroundProfile.means` gather.

The profile is one of two forms in which a window's committed load
reaches a policy.  The load-aware streaming policies (Online+Density,
PowerOfTwo, LeastLoaded) take the other: the raw live pieces of
:attr:`~repro.traces.policies.WindowContext.pieces`, seeded into their
:class:`~repro.routing.fastpath.LoadLedger`, which prices each flow's
span without building a profile (DESIGN.md §20).

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
        Finite, strictly increasing breakpoints, ``float64[K + 1]``.
    loads:
        ``float64[K, num_edges]``, each entry >= 0 (NaN is rejected);
        ``loads[k]`` is the per-edge committed rate on
        ``[times[k], times[k + 1])``.
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
        if not np.all(np.isfinite(times)):
            raise ValidationError("profile breakpoints must be finite")
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
        # One comparison pass over the K x E matrix: NaN fails it too.
        if not np.all(loads >= 0.0):
            raise ValidationError("profile loads must be >= 0 and not NaN")
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

    def _integrals(self, t0s: np.ndarray, t1s: np.ndarray) -> np.ndarray:
        """``F(t1s[i]) - F(t0s[i])`` per row, where ``F(t)`` is the
        per-edge integral from the profile origin to ``t`` (clamped to
        the support; the profile is zero outside it).  One gather for
        every query."""
        if not np.all(t1s > t0s):
            bad = int(np.flatnonzero(~(t1s > t0s))[0])
            raise ValidationError(
                f"query window [{t0s[bad]}, {t1s[bad]}) must have "
                "positive length"
            )
        times = self.times
        t = np.clip(np.concatenate((t0s, t1s)), times[0], times[-1])
        j = np.minimum(
            np.searchsorted(times, t, side="right") - 1, len(times) - 2
        )
        at = self._cumulative()[j] + (t - times[j])[:, None] * self.loads[j]
        n = len(t0s)
        return at[n:] - at[:n]

    def integral(self, t0: float, t1: float) -> np.ndarray:
        """Per-edge integral of the committed rate over ``[t0, t1)``."""
        return self._integrals(np.array([t0]), np.array([t1]))[0]

    def means(self, t0s, t1s) -> np.ndarray:
        """Per-edge mean committed rate over each ``[t0s[i], t1s[i])``:
        ``float64[n, num_edges]``, row ``i`` bit-identical to
        ``mean_over(t0s[i], t1s[i])``.

        This is how a window's consumers read their backgrounds: every
        arriving flow's span, or every elementary interval, in one
        batched gather.  Time outside the support counts as zero load.
        """
        t0s = np.asarray(t0s, dtype=float)
        t1s = np.asarray(t1s, dtype=float)
        out = self._integrals(t0s, t1s) / (t1s - t0s)[:, None]
        # Monotone fp accumulation keeps the difference >= 0 up to
        # rounding; clamp so downstream >= 0 validation never trips.
        np.maximum(out, 0.0, out=out)
        return out

    def mean_over(self, t0: float, t1: float) -> np.ndarray:
        """Per-edge mean committed rate over ``[t0, t1)`` — the one-row
        case of :meth:`means`."""
        return self.means((t0,), (t1,))[0]

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
