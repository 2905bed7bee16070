"""Flow-size samplers and deadline-slack models for trace generation.

A *size sampler* is a callable ``rng -> float``.  A *slack model* is a
callable ``(rng, size) -> float`` returning the extra time granted past the
release, so ``deadline = release + slack``.

The heavy-tailed samplers here (Pareto, lognormal) are what measured DCN
traces actually look like — a sea of mice and a few elephants — and are the
stress case for deadline scheduling: one elephant's span covers many replay
windows.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "SizeSampler",
    "SlackModel",
    "pareto_sizes",
    "lognormal_sizes",
    "uniform_sizes",
    "proportional_slack",
    "uniform_slack",
]

SizeSampler = Callable[[np.random.Generator], float]
SlackModel = Callable[[np.random.Generator, float], float]


def pareto_sizes(
    shape: float = 1.5, scale: float = 1.0, cap: float | None = None
) -> SizeSampler:
    """Pareto (power-law) sizes: ``scale * (1 + Lomax(shape))``.

    ``shape <= 2`` gives infinite variance — the classic elephant/mice mix.
    ``cap`` optionally truncates the tail (resampling would skew the draw
    order, so values are clipped instead).
    """
    if shape <= 0:
        raise ValidationError(f"shape must be > 0, got {shape}")
    if scale <= 0:
        raise ValidationError(f"scale must be > 0, got {scale}")
    if cap is not None and cap <= scale:
        raise ValidationError(f"cap must exceed scale {scale}, got {cap}")

    def sample(rng: np.random.Generator) -> float:
        value = scale * (1.0 + float(rng.pareto(shape)))
        return min(value, cap) if cap is not None else value

    return sample


def lognormal_sizes(mean_log: float = 1.0, sigma_log: float = 0.8) -> SizeSampler:
    """Lognormal sizes: ``exp(N(mean_log, sigma_log))`` — heavy but finite-variance."""
    if sigma_log <= 0:
        raise ValidationError(f"sigma_log must be > 0, got {sigma_log}")

    def sample(rng: np.random.Generator) -> float:
        return float(rng.lognormal(mean_log, sigma_log))

    return sample


def uniform_sizes(low: float, high: float) -> SizeSampler:
    """Uniform sizes on ``[low, high]`` — the light-tailed control."""
    if not 0 < low <= high:
        raise ValidationError(f"need 0 < low <= high, got {low} / {high}")

    def sample(rng: np.random.Generator) -> float:
        return float(rng.uniform(low, high))

    return sample


def proportional_slack(
    factor: float = 2.0, reference_rate: float = 1.0, jitter: float = 0.0
) -> SlackModel:
    """Deadline slack proportional to the ideal transfer time.

    ``slack = factor * size / reference_rate``, the D3/D2TCP convention: a
    flow gets ``factor`` times the time it would need at the reference
    rate.  ``jitter > 0`` multiplies by ``Uniform(1, 1 + jitter)`` so
    breakpoints do not align artificially.
    """
    if factor <= 0 or reference_rate <= 0:
        raise ValidationError(
            f"factor and reference_rate must be > 0, got {factor} / {reference_rate}"
        )
    if jitter < 0:
        raise ValidationError(f"jitter must be >= 0, got {jitter}")

    def sample(rng: np.random.Generator, size: float) -> float:
        slack = factor * size / reference_rate
        if jitter > 0:
            slack *= float(rng.uniform(1.0, 1.0 + jitter))
        return slack

    return sample


def uniform_slack(low: float, high: float) -> SlackModel:
    """Size-independent slack drawn uniformly from ``[low, high]``.

    Models user-facing latency targets that do not scale with payload;
    small flows become easy, elephants become near-critical.
    """
    if not 0 < low <= high:
        raise ValidationError(f"need 0 < low <= high, got {low} / {high}")

    def sample(rng: np.random.Generator, size: float) -> float:
        return float(rng.uniform(low, high))

    return sample
