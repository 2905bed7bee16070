"""Baseline algorithms for DCFSR.

* :func:`sp_mcf` — the paper's Figure-2 comparator: deterministic
  shortest-path routing followed by optimal Most-Critical-First rate
  assignment.  "As SP is usually adopted, SP+MCF gives the lower bound of
  the energy consumption by SP routing, which represents the normal energy
  consumption in data centers."
* :func:`greedy_marginal_routing` — a natural energy-aware heuristic
  (beyond the paper): route flows one by one, each on the cheapest path
  under the marginal envelope cost of the density loads placed so far,
  then run Most-Critical-First.  Used in the ablation benchmarks to locate
  Random-Schedule between "oblivious" and "clairvoyant" routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.dcfs import DcfsResult, solve_dcfs
from repro.flows.flow import FlowSet
from repro.power.model import PowerModel
from repro.routing.costs import envelope_cost, marginal_price
from repro.scheduling.schedule import EnergyBreakdown, Schedule
from repro.topology.base import Topology

__all__ = [
    "BaselineResult",
    "sp_mcf",
    "greedy_marginal_routing",
]

Path = tuple[str, ...]


@dataclass(frozen=True)
class BaselineResult:
    """A baseline's schedule, its energy, and the routes it chose."""

    name: str
    schedule: Schedule
    energy: EnergyBreakdown
    paths: Mapping[int | str, Path]
    dcfs: DcfsResult | None = None


def _routed_mcf(
    name: str,
    flows: FlowSet,
    topology: Topology,
    power: PowerModel,
    paths: dict[int | str, Path],
) -> BaselineResult:
    result = solve_dcfs(flows, topology, paths, power)
    t0 = min(f.release for f in flows)
    t1 = max(f.deadline for f in flows)
    return BaselineResult(
        name=name,
        schedule=result.schedule,
        energy=result.schedule.energy(power, horizon=(t0, t1)),
        paths=paths,
        dcfs=result,
    )


def sp_mcf(
    flows: FlowSet, topology: Topology, power: PowerModel
) -> BaselineResult:
    """Shortest-path routing + optimal Most-Critical-First scheduling."""
    flows.validate_against(topology)
    paths = {
        flow.id: topology.shortest_path(flow.src, flow.dst) for flow in flows
    }
    return _routed_mcf("SP+MCF", flows, topology, power, paths)


def greedy_marginal_routing(
    flows: FlowSet, topology: Topology, power: PowerModel
) -> BaselineResult:
    """Sequential marginal-cost routing + Most-Critical-First.

    Flows are routed in decreasing density order; each flow picks the
    cheapest path under the marginal envelope cost of the loads committed
    so far (loads approximate each flow's footprint by its density on every
    link of its chosen path, ignoring span overlap — a deliberately cheap
    surrogate).  A commit changes only its own path's loads, so the
    weight vector is updated on those edges alone.
    """
    flows.validate_against(topology)
    cost = envelope_cost(power)
    loads = np.zeros(topology.num_edges)
    paths: dict[int | str, Path] = {}
    order = sorted(flows, key=lambda f: (-f.density, str(f.id)))
    from repro.routing.fastpath import FastRouter

    router = FastRouter(topology)
    weights = marginal_price(cost, loads)
    for flow in order:
        path, edge_ids = router.route(flow.src, flow.dst, weights)
        paths[flow.id] = path
        loads[edge_ids] += flow.density
        weights[edge_ids] = marginal_price(cost, loads[edge_ids])
    return _routed_mcf("Greedy+MCF", flows, topology, power, paths)
