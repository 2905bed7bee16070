"""Routing: fractional MCF (array-native Frank–Wolfe engine), randomized
rounding, and the array-native fast path (marginal-cost router + load
ledger).

The names below are re-exported lazily (PEP 562): importing
:mod:`repro.routing.fastpath` or :mod:`repro.routing.costs` does not
load the Frank–Wolfe engine and :mod:`scipy.sparse`.
"""

from importlib import import_module

_EXPORTS = {
    "background": ("BackgroundProfile",),
    "costs": ("EdgeCost", "envelope_cost"),
    "mcflow": (
        "ArrayPathFlows",
        "Commodity",
        "FrankWolfeSolver",
        "MCFSolution",
        "PathRegistry",
        "RelaxationSession",
    ),
    "rounding": (
        "ArrayPathWeights",
        "aggregate_path_weights_array",
        "argmax_paths",
        "sample_paths",
    ),
    "paths": ("k_shortest_paths",),
    "fastpath": ("FastRouter", "LoadLedger"),
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
