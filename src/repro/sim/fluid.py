"""Fluid replay simulator: execute a schedule and measure what happens.

The analytical :class:`repro.scheduling.Schedule` computes energy by
integrating per-edge piecewise rates.  This simulator is a deliberately
*independent* implementation that replays the schedule over time and
accumulates energy, per-flow progress, link utilization and capacity
violations.  Agreement between the two is asserted by the integration
tests — a strong guard against sign/tolerance bugs in either.

It is also the "simulator ... implemented in Python" of the paper's
Section V-C, in the same fluid-flow tradition.

:func:`simulate_fluid` is event-driven (DESIGN.md Section 8): every flow
segment contributes a ``+rate`` event at its (horizon-clipped) start and a
``-rate`` event at its end on each link of the flow's path, and per-link
statistics come from one vectorized sweep over that link's own event
boundaries instead of reconstructing every link's instantaneous rate at
every *global* epoch.  The original O(epochs x flows x path)
reconstruction, ``simulate_fluid_reference``, is its oracle in
``tests/oracles/fluid.py``; ``tests/test_perf_kernels.py`` pins the two
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ValidationError
from repro.flows.flow import FlowSet
from repro.power.model import PowerModel
from repro.scheduling.schedule import Schedule
from repro.topology.base import Edge, Topology

__all__ = [
    "LinkStats",
    "SimulationReport",
    "simulate_fluid",
]

@dataclass(frozen=True)
class LinkStats:
    """Per-link statistics gathered during the replay."""

    peak_rate: float
    busy_time: float
    volume_carried: float
    dynamic_energy: float

    def utilization(self, horizon_length: float) -> float:
        """Fraction of the horizon the link carried traffic."""
        if horizon_length <= 0:
            raise ValidationError("horizon_length must be positive")
        return self.busy_time / horizon_length


@dataclass
class SimulationReport:
    """Everything the fluid replay observed."""

    horizon: tuple[float, float]
    total_energy: float
    idle_energy: float
    dynamic_energy: float
    active_links: int
    completion_times: Mapping[int | str, float]
    deadlines_met: Mapping[int | str, bool]
    link_stats: Mapping[Edge, LinkStats]
    capacity_violations: list[str] = field(default_factory=list)
    epochs: int = 0

    @property
    def all_deadlines_met(self) -> bool:
        return all(self.deadlines_met.values())


def _link_profile(
    pieces: list[tuple[float, float, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked-rate profile of one link from its (start, end, rate) pieces.

    Returns ``(points, values, counts)`` where ``values[i]`` is the summed
    rate and ``counts[i]`` the number of concurrent pieces on
    ``[points[i], points[i+1])``.  Rates accumulate as an event-diff
    cumsum (``+rate`` at each start, ``-rate`` at each end) — an algorithm
    deliberately different from ``PiecewiseConstant``'s per-slot compile,
    so the simulator stays an independent cross-check of the analytical
    energy.  Activity is tracked with the same sweep over exact integer
    counts, immune to the float cancellation noise the rate cumsum can
    carry past a link's last piece.
    """
    starts = np.array([s for s, _, _ in pieces])
    ends = np.array([e for _, e, _ in pieces])
    rates = np.array([r for _, _, r in pieces])
    points = np.unique(np.concatenate((starts, ends)))
    first = np.searchsorted(points, starts)
    last = np.searchsorted(points, ends)
    diff = np.zeros(points.size)
    np.add.at(diff, first, rates)
    np.add.at(diff, last, -rates)
    values = np.cumsum(diff[:-1])
    count_diff = np.zeros(points.size, dtype=np.int64)
    np.add.at(count_diff, first, 1)
    np.add.at(count_diff, last, -1)
    counts = np.cumsum(count_diff[:-1])
    return points, values, counts


def simulate_fluid(
    schedule: Schedule,
    flows: FlowSet,
    topology: Topology,
    power: PowerModel,
    horizon: tuple[float, float] | None = None,
    tol: float = 1e-6,
) -> SimulationReport:
    """Replay ``schedule`` with per-link event sweeps and report energy +
    feasibility.

    Semantics match the oracle ``simulate_fluid_reference``: flows
    progress only inside the horizon, completion times snap to the global epoch grid
    (every segment boundary of every flow), and a link is active on
    exactly the epochs where some segment covers it.  Capacity violations
    are reported per link event-slot rather than per global epoch, so the
    list is coarser (but covers the same violation measure).
    """
    if horizon is None:
        horizon = flows.horizon
    t0, t1 = horizon
    bounds = {t0, t1}
    for fs in schedule:
        for seg in fs.segments:
            if t0 <= seg.start <= t1:
                bounds.add(seg.start)
            if t0 <= seg.end <= t1:
                bounds.add(seg.end)
    if len(bounds) < 2:
        raise ValidationError("schedule has no extent inside the horizon")
    epochs = np.array(sorted(bounds))

    # Horizon-clipped pieces, per flow and per link.
    flow_pieces: dict[int | str, list[tuple[float, float, float]]] = {}
    edge_pieces: dict[Edge, list[tuple[float, float, float]]] = {}
    for fs in schedule:
        pieces = flow_pieces.setdefault(fs.flow.id, [])
        for seg in fs.segments:
            s, e = max(seg.start, t0), min(seg.end, t1)
            if e <= s:
                continue
            pieces.append((s, e, seg.rate))
            for edge in fs.edges:
                edge_pieces.setdefault(edge, []).append((s, e, seg.rate))

    # ------------------------------------------------------------------
    # Per-link sweeps.
    # ------------------------------------------------------------------
    stats: dict[Edge, LinkStats] = {}
    violations: list[str] = []
    dynamic = 0.0
    for edge, pieces in edge_pieces.items():
        points, values, counts = _link_profile(pieces)
        covered = counts > 0
        widths = np.diff(points)
        v = values[covered]
        w = widths[covered]
        dyn = float(np.dot(power.mu * np.power(v, power.alpha), w))
        dynamic += dyn
        stats[edge] = LinkStats(
            peak_rate=float(v.max()),
            busy_time=float(w.sum()),
            volume_carried=float(np.dot(v, w)),
            dynamic_energy=dyn,
        )
        limit = power.capacity * (1.0 + tol)
        over = covered & (values > limit)
        for i in np.flatnonzero(over).tolist():
            violations.append(
                f"link {edge!r}: rate {values[i]:.6g} > capacity "
                f"{power.capacity:g} during [{points[i]:g}, {points[i + 1]:g}]"
            )

    # ------------------------------------------------------------------
    # Per-flow completion: the first global epoch by which the flow's
    # cumulative delivered volume reaches size * (1 - tol).
    # ------------------------------------------------------------------
    completion: dict[int | str, float] = {}
    for fid, pieces in flow_pieces.items():
        flow = flows[fid]
        if not pieces:
            continue
        ps = np.array([s for s, _, _ in pieces])
        pe = np.array([e for _, e, _ in pieces])
        pr = np.array([r for _, _, r in pieces])
        cum = np.concatenate(([0.0], np.cumsum(pr * (pe - ps))))
        theta = flow.size * (1.0 - tol)

        def delivered_by(t: float) -> float:
            k = int(np.searchsorted(pe, t, side="left"))
            if k >= ps.size:
                return float(cum[-1])
            partial = max(0.0, (min(t, pe[k]) - ps[k])) * pr[k]
            return float(cum[k]) + partial

        if delivered_by(float(epochs[-1])) < theta:
            continue
        lo, hi = 0, epochs.size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if delivered_by(float(epochs[mid])) >= theta:
                hi = mid
            else:
                lo = mid + 1
        completion[fid] = float(epochs[lo])

    deadlines_met = {}
    for flow in flows:
        done = completion.get(flow.id)
        deadlines_met[flow.id] = done is not None and done <= flow.deadline + tol

    idle = power.sigma * (t1 - t0) * len(stats)
    return SimulationReport(
        horizon=horizon,
        total_energy=idle + dynamic,
        idle_energy=idle,
        dynamic_energy=dynamic,
        active_links=len(stats),
        completion_times=completion,
        deadlines_met=deadlines_met,
        link_stats=stats,
        capacity_violations=violations,
        epochs=epochs.size - 1,
    )
