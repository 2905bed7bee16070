"""Simulators: fluid replay and fault injection.

The store-and-forward packet validator and the global-epoch fluid replay
are test oracles and live in ``tests/oracles/``.
"""

from repro.sim.churn import (
    FailureDomain,
    FaultEvent,
    FaultSchedule,
    survivor_shortest_path,
    survivor_topology,
    switch_domains,
)
from repro.sim.failures import fail_links
from repro.sim.fluid import (
    LinkStats,
    SimulationReport,
    simulate_fluid,
)

__all__ = [
    "LinkStats",
    "SimulationReport",
    "simulate_fluid",
    "fail_links",
    "FailureDomain",
    "FaultEvent",
    "FaultSchedule",
    "survivor_shortest_path",
    "survivor_topology",
    "switch_domains",
]
