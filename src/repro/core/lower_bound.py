"""Standalone fractional lower bound for DCFSR (the Fig. 2 normalizer).

The bound is the optimum of the multi-step F-MCF relaxation with the convex
*envelope* of the link power function as the edge cost:

* constant-density fluid rates minimize the dynamic term by Jensen's
  inequality for any fixed fractional routing;
* fractional multi-path routing can only beat single-path routing;
* the envelope under-charges power-down idle energy (it bills sigma
  pro-rata below the optimal operating rate and only while traffic flows,
  whereas a real schedule pays sigma across the whole horizon on every
  active link).

Hence ``LB <= Phi_f(OPT)`` and ratios ``Phi_f(ALG) / LB`` upper-bound true
approximation ratios — exactly how the paper normalizes Figure 2.
"""

from __future__ import annotations

from repro.core.relaxation import default_cost, solve_relaxation
from repro.flows.flow import FlowSet
from repro.power.model import PowerModel
from repro.routing.mcflow import FrankWolfeSolver
from repro.topology.base import Topology

__all__ = ["fractional_lower_bound"]


def fractional_lower_bound(
    flows: FlowSet,
    topology: Topology,
    power: PowerModel,
    fw_max_iterations: int = 60,
    fw_gap_tolerance: float = 1e-3,
) -> float:
    """Compute the relaxation lower bound on ``Phi_f`` for an instance.

    Runs the same stacked interval relaxation as Random-Schedule; use
    :func:`repro.core.solve_dcfsr` instead when you also need the rounded
    schedule (it exposes its ``lower_bound`` without re-solving).

    Every interval contributes its own certified Frank–Wolfe dual bound,
    so the sum is a valid lower bound whatever gap the stacked solve
    stopped at; the bound itself never materializes any per-path
    dictionaries.
    """
    flows.validate_against(topology)
    solver = FrankWolfeSolver(
        topology,
        default_cost(power),
        max_iterations=fw_max_iterations,
        gap_tolerance=fw_gap_tolerance,
    )
    return solve_relaxation(flows, solver).lower_bound
