"""The multi-step F-MCF relaxation shared by Random-Schedule and the LB.

Random-Schedule's first stage (Algorithm 2, steps 1–5) relaxes DCFSR by

* fixing each flow's traffic to its density ``D_i`` (constant-rate fluid),
* allowing fractional multi-path routing, and
* allowing links to power on/off freely per interval;

the relaxed problem then decomposes into one fractional MCF per elementary
interval.  This module solves those pieces once — all intervals together,
as the blocks of one stacked Frank–Wolfe problem (DESIGN.md Section 16) —
and exposes the results to both the rounding stage and the lower-bound
computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flows.flow import FlowSet
from repro.flows.intervals import Interval, TimeGrid
from repro.power.model import PowerModel
from repro.routing.background import BackgroundProfile
from repro.routing.costs import EdgeCost, envelope_cost
from repro.routing.mcflow import Commodity, FrankWolfeSolver, MCFSolution

__all__ = ["IntervalSolution", "RelaxationResult", "solve_relaxation"]


@dataclass(frozen=True)
class IntervalSolution:
    """The fractional routing of one elementary interval."""

    interval: Interval
    solution: MCFSolution
    active_flow_ids: tuple[int | str, ...]

    @property
    def cost_contribution(self) -> float:
        """``|I_k| * sum_e envelope(x*_e(k))`` — this interval's share of
        the relaxation objective (primal value)."""
        return self.interval.length * self.solution.objective

    @property
    def lower_bound_contribution(self) -> float:
        """This interval's share of the *certified* lower bound (uses the
        Frank–Wolfe dual bound, which never exceeds the true interval
        optimum regardless of stopping tolerance)."""
        return self.interval.length * self.solution.lower_bound


@dataclass(frozen=True)
class RelaxationResult:
    """All per-interval fractional solutions plus aggregate quantities."""

    grid: TimeGrid
    intervals: tuple[IntervalSolution, ...]

    @property
    def objective(self) -> float:
        """The relaxation's total (primal) cost."""
        return sum(iv.cost_contribution for iv in self.intervals)

    @property
    def lower_bound(self) -> float:
        """Certified lower bound on ``Phi_f`` of the DCFSR optimum.

        Three relaxations stack: (i) the envelope charges idle power only on
        fractionally-used links and only while they carry traffic, which
        under-counts the true horizon-long idle term; (ii) the dynamic term
        is Jensen-minimal at constant densities for any fixed fractional
        routing; (iii) each interval uses the Frank–Wolfe *dual* bound,
        which never exceeds the interval's true fractional optimum.
        """
        return sum(iv.lower_bound_contribution for iv in self.intervals)


def solve_relaxation(
    flows: FlowSet,
    solver: FrankWolfeSolver,
    grid: TimeGrid | None = None,
    background=None,
) -> RelaxationResult:
    """Solve every elementary interval's F-MCF problem.

    All intervals are solved together, as the blocks of one
    :meth:`~repro.routing.mcflow.FrankWolfeSolver.solve_stacked` call
    weighted by the interval lengths: the solve stops once
    ``objective - lower_bound <= gap_tolerance * objective`` for the
    returned :class:`RelaxationResult` as a whole, while each interval
    keeps its own certified dual bound.

    ``background`` fixes per-edge committed loads every interval routes
    around (see :meth:`FrankWolfeSolver.solve`).  A flat vector charges
    every interval the same loads.  A
    :class:`~repro.routing.background.BackgroundProfile` is resolved
    *per elementary interval*: interval ``[a, b)`` is charged
    ``profile.mean_over(a, b)`` — its own exact background slice, all
    intervals read in one :meth:`~repro.routing.background.
    BackgroundProfile.means` gather — not the window mean, which is what
    retires the window-averaged approximation at the relaxation layer.
    """
    if grid is None:
        grid = TimeGrid(flows)
    profile = background if isinstance(background, BackgroundProfile) else None
    intervals: list[tuple[Interval, tuple]] = []
    blocks: list[list[Commodity]] = []
    # One Commodity per flow for the whole relaxation: a flow's demand is
    # its density, constant across every interval it is active in, so the
    # per-interval commodity lists share these objects.
    commodity_of: dict[int | str, Commodity] = {}
    for interval in grid.intervals:
        active = grid.active_flows(interval)
        if not active:
            continue
        commodities = []
        for f in active:
            commodity = commodity_of.get(f.id)
            if commodity is None:
                commodity = Commodity(
                    id=f.id, src=f.src, dst=f.dst, demand=f.density
                )
                commodity_of[f.id] = commodity
            commodities.append(commodity)
        intervals.append((interval, tuple(f.id for f in active)))
        blocks.append(commodities)
    if profile is not None:
        # Every interval's own background slice, in one gather.
        backgrounds = profile.means(
            [interval.start for interval, _ in intervals],
            [interval.end for interval, _ in intervals],
        )
    else:
        backgrounds = [background] * len(intervals)
    solutions = solver.solve_stacked(
        blocks,
        backgrounds,
        block_weights=[interval.length for interval, _ in intervals],
    )
    return RelaxationResult(
        grid=grid,
        intervals=tuple(
            IntervalSolution(
                interval=interval, solution=solution, active_flow_ids=ids
            )
            for (interval, ids), solution in zip(intervals, solutions)
        ),
    )


def default_cost(power: PowerModel) -> EdgeCost:
    """The relaxation's standard edge cost (envelope + capacity penalty)."""
    return envelope_cost(power)
