"""Routing: fractional MCF (array-native Frank–Wolfe engine + retained
reference), path decomposition, randomized rounding, and the array-native
fast path (CSR Dijkstra + load ledger)."""

from repro.routing.background import BackgroundProfile
from repro.routing.costs import EdgeCost, envelope_cost
from repro.routing.decomposition import decompose_flow, decompose_solution
from repro.routing.fastpath import FastRouter, LoadLedger, csr_dijkstra
from repro.routing.mcflow import (
    ArrayPathFlows,
    Commodity,
    FrankWolfeSolver,
    FrankWolfeSolverReference,
    MCFSolution,
    PathRegistry,
    RelaxationSession,
)
from repro.routing.paths import (
    ecmp_paths,
    ecmp_route,
    k_shortest_paths,
    marginal_route,
    marginal_route_reference,
)
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
    "decompose_flow",
    "decompose_solution",
    "ArrayPathWeights",
    "aggregate_path_weights",
    "aggregate_path_weights_array",
    "argmax_paths",
    "sample_path",
    "sample_paths",
    "k_shortest_paths",
    "ecmp_paths",
    "ecmp_route",
    "marginal_route",
    "marginal_route_reference",
    "csr_dijkstra",
    "FastRouter",
    "LoadLedger",
]
