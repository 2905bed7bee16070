"""Routing: fractional MCF (array-native Frank–Wolfe engine + retained
reference), randomized rounding, and the array-native fast path (cached
marginal-cost router + load ledger)."""

from repro.routing.background import BackgroundProfile
from repro.routing.costs import EdgeCost, envelope_cost
from repro.routing.fastpath import FastRouter, LoadLedger
from repro.routing.mcflow import (
    ArrayPathFlows,
    Commodity,
    FrankWolfeSolver,
    FrankWolfeSolverReference,
    MCFSolution,
    PathRegistry,
    RelaxationSession,
)
from repro.routing.paths import k_shortest_paths, marginal_route_reference
from repro.routing.rounding import (
    ArrayPathWeights,
    aggregate_path_weights,
    aggregate_path_weights_array,
    argmax_paths,
    sample_path,
    sample_paths,
)

__all__ = [
    "BackgroundProfile",
    "EdgeCost",
    "envelope_cost",
    "ArrayPathFlows",
    "Commodity",
    "FrankWolfeSolver",
    "FrankWolfeSolverReference",
    "MCFSolution",
    "PathRegistry",
    "RelaxationSession",
    "ArrayPathWeights",
    "aggregate_path_weights",
    "aggregate_path_weights_array",
    "argmax_paths",
    "sample_path",
    "sample_paths",
    "k_shortest_paths",
    "marginal_route_reference",
    "FastRouter",
    "LoadLedger",
]
