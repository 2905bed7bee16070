"""Arrival processes for trace generation.

Every process emits a *lazy*, strictly ordered stream of arrival times in
``(0, duration]`` from an explicit :class:`numpy.random.Generator`, so a
million-flow trace costs O(1) memory and is bit-reproducible under a fixed
seed.  Three canonical shapes cover the workloads the scheduling literature
replays against:

* :class:`PoissonProcess` — the memoryless baseline (exponential gaps);
* :class:`MarkovModulatedProcess` — an MMPP whose intensity follows a
  cyclic continuous-time Markov chain, the standard model for *bursty*
  traffic (ON/OFF with two states, multi-level with more);
* :class:`DiurnalProcess` — a sinusoidal day/night intensity profile,
  sampled exactly by Lewis–Shedler thinning against the peak rate.

Processes are frozen dataclasses: all randomness flows through the ``rng``
argument of :meth:`ArrivalProcess.times`, never through hidden state.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "MarkovModulatedProcess",
    "DiurnalProcess",
]


class ArrivalProcess(ABC):
    """A stochastic point process on ``(0, duration]``."""

    @abstractmethod
    def times(
        self, rng: np.random.Generator, duration: float
    ) -> Iterator[float]:
        """Yield arrival times in increasing order, lazily.

        The stream draws from ``rng`` in a fixed order, so interleaving it
        with other draws from the same generator (as the trace generator
        does for endpoints and sizes) stays deterministic.
        """

    def mean_rate(self) -> float:
        """Long-run arrival intensity (flows per unit time)."""
        raise NotImplementedError  # pragma: no cover - overridden below


@dataclass(frozen=True)
class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at intensity ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValidationError(f"rate must be > 0, got {self.rate}")

    def mean_rate(self) -> float:
        return self.rate

    def times(
        self, rng: np.random.Generator, duration: float
    ) -> Iterator[float]:
        t = 0.0
        scale = 1.0 / self.rate
        while True:
            t += float(rng.exponential(scale))
            if t > duration:
                return
            yield t


@dataclass(frozen=True)
class MarkovModulatedProcess(ArrivalProcess):
    """Markov-modulated Poisson process (bursty ON/OFF and beyond).

    The modulating chain cycles through its states in order; the process
    dwells in state ``k`` for an ``Exponential(mean_dwell[k])`` time during
    which arrivals are Poisson at ``rates[k]``.  A rate of 0 models a
    silent (OFF) phase.  The default is a classic two-state burst model:
    long quiet phases at a trickle, short bursts at 25x the quiet rate.
    """

    rates: tuple[float, ...] = (0.2, 5.0)
    mean_dwell: tuple[float, ...] = (10.0, 2.0)

    def __post_init__(self) -> None:
        if len(self.rates) < 2 or len(self.rates) != len(self.mean_dwell):
            raise ValidationError(
                "rates and mean_dwell must have equal length >= 2, got "
                f"{self.rates!r} / {self.mean_dwell!r}"
            )
        if any(r < 0 for r in self.rates) or all(r == 0 for r in self.rates):
            raise ValidationError(
                f"rates must be >= 0 with at least one positive, got {self.rates!r}"
            )
        if any(d <= 0 for d in self.mean_dwell):
            raise ValidationError(
                f"mean dwell times must be > 0, got {self.mean_dwell!r}"
            )

    def mean_rate(self) -> float:
        weight = sum(self.mean_dwell)
        return sum(r * d for r, d in zip(self.rates, self.mean_dwell)) / weight

    def times(
        self, rng: np.random.Generator, duration: float
    ) -> Iterator[float]:
        state = 0
        t = 0.0
        while t < duration:
            dwell_end = t + float(rng.exponential(self.mean_dwell[state]))
            phase_end = min(dwell_end, duration)
            rate = self.rates[state]
            if rate > 0:
                s = t
                scale = 1.0 / rate
                while True:
                    s += float(rng.exponential(scale))
                    if s > phase_end:
                        break
                    yield s
            t = dwell_end
            state = (state + 1) % len(self.rates)


@dataclass(frozen=True)
class DiurnalProcess(ArrivalProcess):
    """Sinusoidal day/night intensity, sampled by thinning.

    The instantaneous rate is

    ``rate(t) = base_rate + (peak_rate - base_rate) * (1 - cos(2 pi (t - phase) / period)) / 2``

    so the stream starts at the trough (``base_rate``) and peaks halfway
    through each ``period``.  Candidates are drawn from a Poisson process
    at ``peak_rate`` and accepted with probability ``rate(t) / peak_rate``
    (Lewis–Shedler thinning — exact, not a discretization).
    """

    base_rate: float
    peak_rate: float
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.base_rate <= self.peak_rate:
            raise ValidationError(
                f"need 0 <= base_rate <= peak_rate, got "
                f"{self.base_rate} / {self.peak_rate}"
            )
        if self.peak_rate <= 0:
            raise ValidationError(f"peak_rate must be > 0, got {self.peak_rate}")
        if self.period <= 0:
            raise ValidationError(f"period must be > 0, got {self.period}")

    def rate_at(self, t: float) -> float:
        """Instantaneous intensity at time ``t``."""
        swing = self.peak_rate - self.base_rate
        angle = 2.0 * math.pi * (t - self.phase) / self.period
        return self.base_rate + swing * (1.0 - math.cos(angle)) / 2.0

    def mean_rate(self) -> float:
        return (self.base_rate + self.peak_rate) / 2.0

    def times(
        self, rng: np.random.Generator, duration: float
    ) -> Iterator[float]:
        t = 0.0
        scale = 1.0 / self.peak_rate
        while True:
            t += float(rng.exponential(scale))
            if t > duration:
                return
            if float(rng.uniform()) * self.peak_rate <= self.rate_at(t):
                yield t
