"""Core algorithms: DCFS (Algorithm 1), DCFSR (Algorithm 2), baselines."""

from repro.core.baselines import (
    BaselineResult,
    greedy_marginal_routing,
    sp_mcf,
)
from repro.core.dcfs import DcfsResult, solve_dcfs
from repro.core.dcfsr import (
    DcfsrResult,
    RelaxationPipeline,
    relaxation_weights,
    round_schedule,
    solve_dcfsr,
)
from repro.core.exact import (
    ExactResult,
    exact_parallel_assignment_energy,
    solve_dcfsr_exact,
)
from repro.core.lower_bound import fractional_lower_bound
from repro.core.online import solve_online_density
from repro.core.relaxation import (
    IntervalSolution,
    RelaxationResult,
    solve_relaxation,
)

__all__ = [
    "DcfsResult",
    "solve_dcfs",
    "DcfsrResult",
    "RelaxationPipeline",
    "solve_dcfsr",
    "relaxation_weights",
    "round_schedule",
    "fractional_lower_bound",
    "solve_online_density",
    "BaselineResult",
    "sp_mcf",
    "greedy_marginal_routing",
    "ExactResult",
    "solve_dcfsr_exact",
    "exact_parallel_assignment_energy",
    "IntervalSolution",
    "RelaxationResult",
    "solve_relaxation",
]
