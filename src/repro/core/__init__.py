"""Core algorithms: DCFS (Algorithm 1), DCFSR (Algorithm 2), baselines.

The names below are re-exported lazily (PEP 562): importing one solver
module, such as :mod:`repro.core.dcfs`, loads only what that module
needs, not the Frank–Wolfe engine and :mod:`scipy.sparse` behind the
relaxation and DCFSR.
"""

from importlib import import_module

_EXPORTS = {
    "dcfs": ("DcfsResult", "solve_dcfs"),
    "dcfsr": (
        "DcfsrResult",
        "RelaxationPipeline",
        "solve_dcfsr",
        "relaxation_weights",
        "round_schedule",
    ),
    "lower_bound": ("fractional_lower_bound",),
    "online": ("solve_online_density",),
    "baselines": ("BaselineResult", "sp_mcf", "greedy_marginal_routing"),
    "exact": (
        "ExactResult",
        "solve_dcfsr_exact",
        "exact_parallel_assignment_energy",
    ),
    "relaxation": ("IntervalSolution", "RelaxationResult", "solve_relaxation"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
