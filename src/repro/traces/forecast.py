"""Predictive lookahead for the streaming replay: forecast + hedge.

The replay policies in :mod:`repro.traces.policies` are *reactive*: window
``k``'s relaxation sees the flows released in window ``k`` plus the
committed background, and nothing about what window ``k + 1`` is about to
release.  When arrivals have time structure (the diurnal swell, an MMPP
burst), that blindness is exactly where the reactive policy stacks load it
will regret: the fractional routing happily fills links that the next
window's arrivals need.

This module closes the loop with two pieces:

* :class:`TrafficForecaster` — an online estimator of the arrival stream,
  fed one observed window at a time.  It tracks exponentially weighted
  estimates of the arrival rate, the mean flow size, and the (src, dst)
  volume mix, plus a *bounded relative error* of its own recent forecasts
  — the honesty term.  An optional ``process`` (any
  :class:`~repro.traces.arrivals.ArrivalProcess`, via the shared
  ``forecast(t0, t1)`` interface) replaces the learned arrival rate with
  the model's expected count — the oracle-rate mode the ablation uses —
  and ``bias`` multiplies the forecast, which is how ABL-LOOKAHEAD sweeps
  forecast error without touching the estimator.
* :class:`LookaheadRelaxationPolicy` — :class:`~repro.traces.policies.
  RelaxationRoundingPolicy` with *phantom commodities*: before solving
  window ``k`` it asks the forecaster for the expected per-pair volumes of
  the lookahead horizon ``[end, end + horizon)``, injects them as phantom
  flows into the window's F-MCF relaxation (they shape the fractional
  routing of every real flow whose span crosses the window boundary — the
  exact population the cross-window background is made of), and rounds
  *only* the real flows.  Phantom demand is hedged by
  ``confidence() * hedge``, so a forecaster that has been wrong recently
  automatically fades its own influence — the graceful-degradation
  property the acceptance gate checks.

Phantom ids encode the endpoint pair (``__lookahead:src>dst``) because the
relaxation keys commodities *by id*: a reused id must always mean the same
(src, dst), or one flow's path rows would be read as another's.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ValidationError
from repro.flows.flow import Flow
from repro.scheduling.schedule import FlowSchedule
from repro.traces.arrivals import ArrivalProcess
from repro.traces.policies import RelaxationRoundingPolicy, WindowContext

__all__ = ["TrafficForecaster", "LookaheadRelaxationPolicy", "PHANTOM_PREFIX"]

#: Phantom commodity ids start with this; they never appear in rounding
#: output and must never collide with real flow ids.
PHANTOM_PREFIX = "__lookahead:"

#: Phantom demands below this fraction of the total forecast volume are
#: dropped — they cannot shape the relaxation but would still pay the
#: all-or-nothing seeding cost every window.
_MIX_FLOOR = 1e-3


class TrafficForecaster:
    """Online arrival-stream estimator with self-assessed confidence.

    Parameters
    ----------
    alpha:
        Exponential-smoothing weight of the newest window (0 < alpha <= 1).
        The default 0.5 follows bursts within a couple of windows without
        whipsawing on single-window noise.
    process:
        Optional :class:`~repro.traces.arrivals.ArrivalProcess`.  When
        given, expected arrival *counts* come from the model's closed-form
        ``forecast(t0, t1)`` (exact for Poisson/diurnal, cycle-stationary
        for MMPP) instead of the learned rate; sizes and the pair mix are
        still learned from the observed stream.
    bias:
        Multiplies every volume forecast.  ``1.0`` is honest; the
        ABL-LOOKAHEAD ablation sweeps this to inject controlled forecast
        error (e.g. ``4.0`` = the forecaster overestimates 4x).
    top_pairs:
        Number of heaviest (src, dst) pairs the forecast volume is spread
        over (phantom commodities are per pair; a long tail of tiny
        phantoms costs relaxation time without shaping anything).
    warmup:
        Observed windows before :meth:`confidence` leaves zero — with
        nothing observed there is no mean size and no pair mix, so the
        forecast is vacuous regardless of the rate model.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        process: ArrivalProcess | None = None,
        bias: float = 1.0,
        top_pairs: int = 8,
        warmup: int = 2,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValidationError(f"alpha must be in (0, 1], got {alpha}")
        if not bias > 0.0:
            raise ValidationError(f"bias must be > 0, got {bias}")
        if top_pairs < 1:
            raise ValidationError(f"top_pairs must be >= 1, got {top_pairs}")
        if warmup < 1:
            raise ValidationError(f"warmup must be >= 1, got {warmup}")
        self._alpha = alpha
        self._process = process
        self._bias = bias
        self._top_pairs = top_pairs
        self._warmup = warmup
        self.reset()

    def reset(self) -> None:
        """Forget everything observed (the policy calls this per run)."""
        self._rate = 0.0  # flows per unit time, EW
        self._mean_size = 0.0  # per-flow volume, EW
        self._pair_rate: dict[tuple[str, str], float] = {}  # volume/time, EW
        self._err = 0.0  # bounded relative forecast error, EW
        self.windows_observed = 0

    # ------------------------------------------------------------------
    # Learning.
    # ------------------------------------------------------------------
    def observe(self, flows: Sequence[Flow], start: float, end: float) -> None:
        """Fold one observed window ``[start, end)`` into the estimates.

        Before updating, the window is scored against what :meth:`
        forecast_volume` *would have predicted* for it — the forecaster
        grades its own homework, which is what :meth:`confidence` reads.
        """
        if not end > start:
            raise ValidationError(
                f"observed window [{start}, {end}) must have positive length"
            )
        span = end - start
        volume = sum(f.size for f in flows)
        count = len(flows)
        if self.windows_observed >= self._warmup:
            predicted = self.forecast_volume(start, end)
            top = max(predicted, volume)
            miss = abs(predicted - volume) / top if top > 0.0 else 0.0
            self._err += self._alpha * (miss - self._err)
        a = self._alpha
        self._rate += a * (count / span - self._rate)
        if count:
            self._mean_size += a * (volume / count - self._mean_size)
        seen: dict[tuple[str, str], float] = {}
        for f in flows:
            key = (f.src, f.dst)
            seen[key] = seen.get(key, 0.0) + f.size / span
        volume_rate = max(self._rate * self._mean_size, 1e-12)
        for key in list(self._pair_rate):
            stale = self._pair_rate[key] * (1.0 - a)
            if key not in seen and stale < _MIX_FLOOR * volume_rate:
                del self._pair_rate[key]
            else:
                self._pair_rate[key] = stale
        for key, rate in seen.items():
            self._pair_rate[key] = self._pair_rate.get(key, 0.0) + a * rate
        self.windows_observed += 1

    # ------------------------------------------------------------------
    # Forecasting.
    # ------------------------------------------------------------------
    def forecast_count(self, t0: float, t1: float) -> float:
        """Expected arrivals in ``[t0, t1)`` (bias included)."""
        if self._process is not None:
            base = self._process.forecast(t0, t1)
        else:
            base = self._rate * (t1 - t0)
        return base * self._bias

    def forecast_volume(self, t0: float, t1: float) -> float:
        """Expected offered volume in ``[t0, t1)`` (bias included)."""
        return self.forecast_count(t0, t1) * self._mean_size

    def confidence(self) -> float:
        """Self-assessed forecast weight in ``[0, 1]``.

        Zero until ``warmup`` windows are observed, then ``1 - err`` where
        ``err`` is the exponentially weighted *bounded* relative error
        ``|predicted - actual| / max(predicted, actual)`` of this
        forecaster's own recent window predictions.  A biased or
        burst-whipped forecaster measurably mispredicts, so its phantoms
        fade in exact proportion — that is the hedge's graceful half.
        """
        if self.windows_observed < self._warmup:
            return 0.0
        return max(0.0, 1.0 - self._err)

    def pair_mix(self) -> list[tuple[tuple[str, str], float]]:
        """Top ``(pair, share)`` entries of the learned volume mix.

        Shares are renormalized over the returned pairs and sum to 1
        (empty when nothing has been observed).
        """
        if not self._pair_rate:
            return []
        ranked = sorted(
            self._pair_rate.items(), key=lambda kv: (-kv[1], kv[0])
        )[: self._top_pairs]
        total = sum(rate for _, rate in ranked)
        if total <= 0.0:
            return []
        return [(pair, rate / total) for pair, rate in ranked]

    def phantoms(
        self, t0: float, t1: float, hedge: float = 1.0
    ) -> list[Flow]:
        """Phantom flows carrying the hedged forecast for ``[t0, t1)``.

        The forecast volume, scaled by ``confidence() * hedge``, is spread
        over the learned pair mix; each pair becomes one flow with id
        ``__lookahead:src>dst`` spanning exactly ``[t0, t1)``.  Returns
        ``[]`` whenever the hedged volume vanishes (cold start, zero
        confidence, zero hedge) — the caller then runs purely reactive.
        """
        weight = self.confidence() * hedge
        if weight <= 0.0:
            return []
        volume = self.forecast_volume(t0, t1) * weight
        if volume <= 0.0:
            return []
        out = []
        for (src, dst), share in self.pair_mix():
            size = volume * share
            if size < volume * _MIX_FLOOR:
                continue
            out.append(
                Flow(
                    id=f"{PHANTOM_PREFIX}{src}>{dst}",
                    src=src,
                    dst=dst,
                    size=size,
                    release=t0,
                    deadline=t1,
                )
            )
        return out


class LookaheadRelaxationPolicy(RelaxationRoundingPolicy):
    """Relaxation + rounding with forecast phantom commodities.

    Runs :class:`~repro.traces.policies.RelaxationRoundingPolicy`
    unchanged — same stacked solve, same interval-resolved background,
    same rounding — but co-relaxes the forecaster's hedged phantoms for
    the horizon ``[end, end + lookahead)`` alongside the window's real
    flows.  Phantoms only share elementary intervals with real flows
    whose spans cross the window boundary, so the hedge acts exactly on
    the decisions that become the *next* window's background — the
    cross-window stacking a reactive policy cannot see coming.  Rounding
    and committing cover real flows only: the phantoms never appear in
    the output schedules, and the engine's accounting never sees them.

    Parameters
    ----------
    forecaster:
        The :class:`TrafficForecaster` to feed and query (a fresh default
        one when omitted).  Observed windows accumulate across
        :meth:`schedule_window` calls; :meth:`reset` clears them.
    lookahead:
        Horizon length the phantoms span, in trace time units.  Default
        (``None``) is one window length (``ctx.end - ctx.start``) — the
        next window exactly.
    hedge:
        Fraction of the *confident* forecast volume the phantoms carry.
        The default 1.0 trusts the (confidence-weighted) forecast
        outright — across the ABL-LOOKAHEAD grid it dominates softer
        hedges because the confidence term already absorbs estimator
        error; values above ~1.5 start over-repelling cross-boundary
        flows onto detours the realized demand never justifies.
    **kwargs:
        Forwarded to :class:`RelaxationRoundingPolicy` (seed, Frank–Wolfe
        knobs, ``warm_windows``, ``rounding``).
    """

    name = "Lookahead+Relax"

    def __init__(
        self,
        forecaster: TrafficForecaster | None = None,
        lookahead: float | None = None,
        hedge: float = 1.0,
        **kwargs,
    ) -> None:
        if lookahead is not None and not lookahead > 0.0:
            raise ValidationError(
                f"lookahead must be > 0, got {lookahead}"
            )
        if hedge < 0.0:
            raise ValidationError(f"hedge must be >= 0, got {hedge}")
        super().__init__(**kwargs)
        self.forecaster = (
            forecaster if forecaster is not None else TrafficForecaster()
        )
        self._lookahead = lookahead
        self._hedge = hedge

    def schedule_window(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> list[FlowSchedule]:
        self.forecaster.observe(flows, ctx.start, ctx.end)
        horizon = (
            self._lookahead
            if self._lookahead is not None
            else ctx.end - ctx.start
        )
        phantoms = self.forecaster.phantoms(
            ctx.end, ctx.end + horizon, hedge=self._hedge
        )
        return self._schedule(flows, ctx, extra=phantoms)

    def reset(self) -> None:
        super().reset()
        self.forecaster.reset()
