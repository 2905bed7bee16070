"""Simulators: fluid replay and fault injection.

The store-and-forward packet validator is a test oracle and lives in
``tests/oracles/packet.py``.
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
    simulate_fluid_reference,
)

__all__ = [
    "LinkStats",
    "SimulationReport",
    "simulate_fluid",
    "simulate_fluid_reference",
    "fail_links",
    "FailureDomain",
    "FaultEvent",
    "FaultSchedule",
    "survivor_shortest_path",
    "survivor_topology",
    "switch_domains",
]
