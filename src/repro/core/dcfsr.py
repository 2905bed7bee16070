"""Random-Schedule: the paper's DCFSR approximation (Algorithm 2).

DCFSR chooses a route *and* a rate schedule per flow.  It is strongly
NP-hard (Theorem 2), so the paper approximates:

1. **Relax** to a multi-step fractional MCF (densities, multi-path,
   free power toggling) and solve each elementary interval by convex
   programming — :mod:`repro.core.relaxation`.
2. **Extract candidate paths** per flow per interval with fractional
   weights (the Frank–Wolfe solver returns them natively).
3. **Round**: aggregate weights across intervals
   (``w_bar_P = sum_k w_P(k) |I_k| / (d_i - r_i)``) and draw one path per
   flow — :mod:`repro.routing.rounding`.
4. **Schedule**: transmit each flow at its density ``D_i`` across its whole
   span on the drawn path; per-link EDF forwards interval-by-interval
   (Theorem 4 guarantees every deadline is met because each interval's
   arrivals exactly fit at rate ``sum of active densities``).

The rounding does not guarantee the link-capacity constraint; following the
paper we re-draw until the realized schedule is capacity-feasible (or a
retry budget is exhausted, in which case the best attempt is returned and
flagged).  The relaxation objective is also a certified lower bound on the
optimum, which is the normalization used throughout Figure 2.

The rounding loop is array-native end to end (DESIGN.md Section 10): the
per-interval :class:`~repro.routing.mcflow.ArrayPathFlows` rows feed
:func:`~repro.routing.rounding.aggregate_path_weights_array` once, and
every subsequent draw is one batched
:func:`~repro.routing.rounding.sample_paths` pass.
:class:`RelaxationPipeline` packages the relax → aggregate chain around
one persistent solver for callers that feed it a *sequence* of related
instances (the streaming replay policy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.relaxation import (
    RelaxationResult,
    default_cost,
    solve_relaxation,
)
from repro.errors import ValidationError
from repro.flows.flow import Flow, FlowSet
from repro.flows.intervals import TimeGrid
from repro.power.model import PowerModel
from repro.routing.background import BackgroundProfile
from repro.routing.costs import EdgeCost
from repro.routing.mcflow import FrankWolfeSolver
from repro.routing.rounding import (
    ArrayPathWeights,
    aggregate_path_weights_array,
    argmax_paths,
    sample_paths,
)
from repro.scheduling.schedule import (
    EnergyBreakdown,
    Schedule,
    density_schedule,
)
from repro.topology.base import Topology

__all__ = [
    "DcfsrResult",
    "RelaxationPipeline",
    "solve_dcfsr",
    "relaxation_weights",
    "round_schedule",
]

Path = tuple[str, ...]


@dataclass(frozen=True)
class DcfsrResult:
    """Outcome of Random-Schedule.

    Attributes
    ----------
    schedule:
        The rounded schedule (one path per flow, constant density rates).
    energy:
        ``Phi_f`` of the returned schedule.
    lower_bound:
        The relaxation objective — a lower bound on the DCFSR optimum; the
        paper's Figure 2 normalizes by this value.
    relaxation:
        The underlying per-interval fractional solutions.
    rounding_weights:
        Per flow, the aggregated ``w_bar`` path distribution it was drawn
        from (useful for ablations on rounding variance).
    attempts:
        Number of rounding draws performed (1 = first draw was feasible).
    capacity_feasible:
        Whether the returned schedule respects every link capacity.
    """

    schedule: Schedule
    energy: EnergyBreakdown
    lower_bound: float
    relaxation: RelaxationResult
    rounding_weights: Mapping[int | str, Mapping[Path, float]]
    attempts: int
    capacity_feasible: bool

    @property
    def approximation_ratio(self) -> float:
        """``Phi_f(schedule) / lower_bound`` — an upper bound on the true
        approximation ratio (the real optimum sits between the two)."""
        return self.energy.total / self.lower_bound


def relaxation_weights(
    flows: Sequence[Flow], relaxation: RelaxationResult
) -> ArrayPathWeights:
    """Aggregate every flow's ``w_bar`` straight from the solver rows."""
    contributions = [
        (iv.interval.length, iv.solution.arrays)
        for iv in relaxation.intervals
    ]
    return aggregate_path_weights_array(list(flows), contributions)


def round_schedule(
    flows: FlowSet,
    relaxation: RelaxationResult,
    rng: np.random.Generator,
) -> tuple[Schedule, Mapping[int | str, Mapping[Path, float]]]:
    """One randomized-rounding draw: a single path and density-rate profile
    per flow.  Returns the schedule and the ``w_bar`` distributions used.

    Array-native: one registry-space aggregation plus one batched sampling
    pass; consumes the same generator stream (one uniform per flow, in
    flow order) as the nested-dict oracle ``round_schedule_reference``
    (``tests/oracles/rounding.py``).
    """
    weights = relaxation_weights(list(flows), relaxation)
    paths = sample_paths(weights, rng)
    return (
        Schedule(
            density_schedule(flow, path)
            for flow, path in zip(flows, paths)
        ),
        weights,
    )


class RelaxationPipeline:
    """Relax → aggregate, around one persistent solver.

    The pipeline owns a :class:`FrankWolfeSolver`, so a caller feeding it
    consecutive related instances (the Relax+Round replay policy, a shard
    worker) keeps one path registry, walk cache and shortest-path
    scratch across them.  Each instance is one stacked solve over its
    elementary intervals (:func:`~repro.core.relaxation.solve_relaxation`),
    and every hand-off between stages stays in registry-id space:
    interval rows aggregate via :func:`aggregate_path_weights_array`,
    and the caller draws from them with batched :func:`sample_paths`.
    """

    def __init__(
        self,
        topology: Topology,
        power: PowerModel,
        max_iterations: int = 60,
        gap_tolerance: float = 1e-3,
        cost: EdgeCost | None = None,
    ) -> None:
        self.topology = topology
        self.power = power
        self.solver = FrankWolfeSolver(
            topology,
            cost if cost is not None else default_cost(power),
            max_iterations=max_iterations,
            gap_tolerance=gap_tolerance,
        )

    def solve(
        self,
        flows: FlowSet,
        grid: TimeGrid | None = None,
        background: np.ndarray | BackgroundProfile | None = None,
    ) -> RelaxationResult:
        """Solve the instance's interval relaxation in one stacked solve.

        ``background`` fixes committed per-edge loads every interval
        routes around — a flat vector charges all intervals alike, a
        :class:`~repro.routing.background.BackgroundProfile` charges
        each elementary interval its own exact slice (see
        :func:`~repro.core.relaxation.solve_relaxation`).
        """
        return solve_relaxation(
            flows, self.solver, grid, background=background
        )

    def weights(
        self, flows: FlowSet, relaxation: RelaxationResult
    ) -> ArrayPathWeights:
        """Aggregated ``w_bar`` distributions for ``flows`` (array rows)."""
        return relaxation_weights(list(flows), relaxation)


def solve_dcfsr(
    flows: FlowSet,
    topology: Topology,
    power: PowerModel,
    seed: int | np.random.Generator = 0,
    max_attempts: int = 25,
    fw_max_iterations: int = 60,
    fw_gap_tolerance: float = 1e-3,
    rounding: str = "random",
) -> DcfsrResult:
    """Run the full Random-Schedule pipeline.

    Parameters
    ----------
    flows, topology, power:
        The DCFSR instance.  With an infinite-capacity power model the
        first rounding draw is always accepted.
    seed:
        Seed or generator for the rounding randomness.
    max_attempts:
        Rounding retries before giving up on capacity feasibility; the
        best (lowest-energy) draw seen is returned either way, preferring
        feasible draws.
    fw_max_iterations, fw_gap_tolerance:
        Frank–Wolfe stopping criteria for each interval's F-MCF solve.
    rounding:
        ``"random"`` (the paper's Algorithm 2) or ``"deterministic"``
        (argmax-``w_bar`` derandomization; single attempt, no variance).
    """
    if max_attempts < 1:
        raise ValidationError(f"max_attempts must be >= 1, got {max_attempts}")
    if rounding not in ("random", "deterministic"):
        raise ValidationError(f"unknown rounding mode {rounding!r}")
    flows.validate_against(topology)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    grid = TimeGrid(flows)
    solver = FrankWolfeSolver(
        topology,
        default_cost(power),
        max_iterations=fw_max_iterations,
        gap_tolerance=fw_gap_tolerance,
    )
    relaxation = solve_relaxation(flows, solver, grid)
    lower_bound = relaxation.lower_bound

    # The aggregation is draw-independent: build the w_bar rows once and
    # let every retry pay only its batched sampling pass.
    weights = relaxation_weights(list(flows), relaxation)

    horizon = grid.horizon
    best: tuple[bool, EnergyBreakdown, Schedule] | None = None
    attempts = 0
    draw_budget = 1 if rounding == "deterministic" else max_attempts
    for attempts in range(1, draw_budget + 1):
        if rounding == "deterministic":
            paths = argmax_paths(weights)
        else:
            paths = sample_paths(weights, rng)
        schedule = Schedule(
            density_schedule(flow, path)
            for flow, path in zip(flows, paths)
        )
        # max_link_rate and energy share the schedule's cached link-rate
        # profiles, so each draw compiles its per-edge profiles only once.
        feasible = (
            not math.isfinite(power.capacity)
            or schedule.max_link_rate() <= power.capacity * (1.0 + 1e-9)
        )
        breakdown = schedule.energy(power, horizon=horizon)
        key = (feasible, -breakdown.total)
        if best is None or key > (best[0], -best[1].total):
            best = (feasible, breakdown, schedule)
        if feasible:
            break

    assert best is not None
    feasible, breakdown, schedule = best
    return DcfsrResult(
        schedule=schedule,
        energy=breakdown,
        lower_bound=lower_bound,
        relaxation=relaxation,
        rounding_weights=weights,
        attempts=attempts,
        capacity_feasible=feasible,
    )
