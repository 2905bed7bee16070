"""Nested-dict randomized rounding: the oracles of the array engine.

:func:`aggregate_path_weights` and :func:`sample_path` are the per-flow
dict implementations of Algorithm 2's rounding step (``w_bar`` per
candidate path, then one draw), :func:`fractions_for_flow` reads their
per-interval input off a relaxation, and :func:`round_schedule_reference`
runs them flow by flow.  :mod:`repro.routing.rounding`'s registry-id
engine and :func:`repro.core.round_schedule` must match them
(``tests/test_rounding.py``, ``tests/test_dcfsr.py``).  No replay,
experiment or library path runs them, so they live beside the tests;
tests import them as ``tests.oracles.rounding``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.relaxation import RelaxationResult
from repro.errors import ValidationError
from repro.flows.flow import Flow, FlowSet
from repro.flows.intervals import Interval
from repro.routing.rounding import _DRIFT_TOL, _warn_drift
from repro.scheduling.schedule import Schedule, density_schedule

__all__ = [
    "aggregate_path_weights",
    "fractions_for_flow",
    "round_schedule_reference",
    "sample_path",
]

Path = tuple[str, ...]


def fractions_for_flow(
    relaxation: RelaxationResult, flow_id: int | str
) -> list[tuple[Interval, dict[Path, float]]]:
    """Per-interval path fractions of one flow (rounding input)."""
    out: list[tuple[Interval, dict[Path, float]]] = []
    for iv in relaxation.intervals:
        if flow_id in iv.solution.path_flows:
            out.append((iv.interval, iv.solution.path_fractions(flow_id)))
    return out


def aggregate_path_weights(
    flow: Flow,
    interval_fractions: Sequence[tuple[Interval, Mapping[Path, float]]],
) -> dict[Path, float]:
    """Compute ``w_bar`` for one flow from its per-interval path fractions.

    Parameters
    ----------
    flow:
        The flow being rounded.
    interval_fractions:
        ``(interval, {path: fraction})`` for every grid interval inside the
        flow's span; each fraction map should sum to ~1.

    Returns
    -------
    dict mapping each candidate path to its rounding probability.  The
    probabilities are renormalized at the end to absorb solver tolerance;
    if the pre-normalization total drifts from 1 by more than ``1e-6``
    even though the intervals tile the span, a single
    :class:`RuntimeWarning` naming the flow is emitted (silent absorption
    used to hide solver drift).
    """
    if not interval_fractions:
        raise ValidationError(f"flow {flow.id!r}: no interval solutions supplied")
    span = flow.span_length
    weights: dict[Path, float] = {}
    covered = 0.0
    for interval, fractions in interval_fractions:
        if not flow.covers_interval(interval.start, interval.end):
            raise ValidationError(
                f"flow {flow.id!r}: interval {interval!r} outside span"
            )
        covered += interval.length
        share = interval.length / span
        for path, fraction in fractions.items():
            if fraction < -1e-9:
                raise ValidationError(
                    f"flow {flow.id!r}: negative path fraction {fraction}"
                )
            weights[path] = weights.get(path, 0.0) + fraction * share
    if abs(covered - span) > 1e-6 * max(span, 1.0):
        raise ValidationError(
            f"flow {flow.id!r}: intervals cover {covered:g} of span {span:g}"
        )
    total = sum(weights.values())
    if total <= 0:
        raise ValidationError(f"flow {flow.id!r}: all path weights are zero")
    if abs(total - 1.0) > _DRIFT_TOL:
        _warn_drift(flow.id, total)
    return {path: w / total for path, w in weights.items()}


def sample_path(
    weights: Mapping[Path, float], rng: np.random.Generator
) -> Path:
    """Draw one path according to its ``w_bar`` probability.

    Paths are ordered deterministically before sampling so a fixed seed
    yields identical choices across runs and platforms.
    """
    if not weights:
        raise ValidationError("cannot sample from an empty path set")
    paths = sorted(weights)
    probs = np.array([weights[p] for p in paths], dtype=float)
    probs = probs / probs.sum()
    choice = int(rng.choice(len(paths), p=probs))
    return paths[choice]


def round_schedule_reference(
    flows: FlowSet,
    relaxation: RelaxationResult,
    rng: np.random.Generator,
) -> tuple[Schedule, dict[int | str, dict[Path, float]]]:
    """The nested-dict rounding loop, the pinning oracle of
    :func:`repro.core.round_schedule` (one :func:`aggregate_path_weights`
    + :func:`sample_path` per flow)."""
    weights: dict[int | str, dict[Path, float]] = {}
    flow_schedules = []
    for flow in flows:
        fractions = fractions_for_flow(relaxation, flow.id)
        w_bar = aggregate_path_weights(flow, fractions)
        weights[flow.id] = w_bar
        flow_schedules.append(
            density_schedule(flow, sample_path(w_bar, rng))
        )
    return Schedule(flow_schedules), weights
