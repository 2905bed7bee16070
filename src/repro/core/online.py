"""Online density scheduling — the paper's future-work direction.

The paper's algorithms are offline: they see the whole flow set before
deciding anything.  A deployable scheduler sees each flow only at its
release time.  This module implements the natural online policy:

* when flow ``j_i`` arrives, compute each link's *expected* marginal cost
  over the flow's span — the envelope derivative evaluated at the link's
  average already-committed load during ``[r_i, d_i]``;
* route ``j_i`` on the cheapest path under those weights (Dijkstra);
* commit ``j_i`` at its density ``D_i`` for its whole span (the
  minimum-energy constant rate, by Lemma 1/2 applied to the flow alone).

Decisions are irrevocable, exactly like per-flow routing in a real fabric.
The ``online_ablation`` experiment quantifies the "price of not knowing
the future" against offline Random-Schedule and the clairvoyant lower
bound.

One loop, :func:`route_online_density`, serves this offline solver and
the streaming :class:`~repro.traces.policies.OnlineDensityPolicy`.  It
runs on the array-native routing core (DESIGN.md §7): the per-edge
average load over each arriving flow's span comes from an incremental
:class:`~repro.routing.fastpath.LoadLedger` (a commit touches only its
own path edges; span-window corrections are one vectorized pass per
arrival) instead of an O(E x segments) rebuild of per-edge
:class:`~repro.scheduling.timeline.PiecewiseConstant` profiles, and
routing goes through a :class:`~repro.routing.fastpath.FastRouter`
(bidirectional Dijkstra over the topology's CSR adjacency).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.baselines import BaselineResult
from repro.flows.flow import Flow, FlowSet
from repro.power.model import PowerModel
from repro.routing.costs import DEAD_EDGE_WEIGHT, envelope_cost, marginal_price
from repro.routing.fastpath import FastRouter, LoadLedger
from repro.scheduling.schedule import FlowSchedule, Schedule, density_schedule
from repro.topology.base import Topology

__all__ = ["route_online_density", "solve_online_density"]


def route_online_density(
    flows: Iterable[Flow],
    router: FastRouter,
    ledger: LoadLedger,
    power: PowerModel,
    down: frozenset[int] = frozenset(),
) -> list[FlowSchedule]:
    """Route and commit ``flows`` in release order (ties by flow id).

    Each flow takes its cheapest path under the
    :func:`~repro.routing.costs.marginal_price` of the ``ledger``'s load
    over its span and is committed to the ledger at its density.  Dead
    links (``down``) are priced out; a flow whose route still crosses one
    has no survivor path and is left unserved.
    """
    cost = envelope_cost(power)
    down_idx = np.asarray(sorted(down), dtype=np.int64) if down else None
    schedules = []
    for flow in sorted(flows, key=lambda f: (f.release, str(f.id))):
        loads = ledger.loads(flow.release, flow.deadline)
        weights = marginal_price(cost, loads)
        if down_idx is not None:
            weights[down_idx] = DEAD_EDGE_WEIGHT
        path, edge_ids = router.route(flow.src, flow.dst, weights)
        if down and any(int(eid) in down for eid in edge_ids):
            continue  # no surviving route -> unserved
        ledger.commit(edge_ids, flow.release, flow.deadline, flow.density)
        schedules.append(density_schedule(flow, path))
    return schedules


def solve_online_density(
    flows: FlowSet, topology: Topology, power: PowerModel
) -> BaselineResult:
    """Run the online density scheduler over the flows in release order.

    Ties in release time are broken by flow id (deterministic and
    adversary-agnostic).  Returns a :class:`BaselineResult` named
    ``"Online+Density"``; every deadline is met by construction (each flow
    finishes exactly at its deadline at rate ``D_i``).
    """
    flows.validate_against(topology)
    schedules = route_online_density(
        flows, FastRouter(topology), LoadLedger(topology), power
    )
    schedule = Schedule(schedules)
    t0, t1 = flows.horizon
    return BaselineResult(
        name="Online+Density",
        schedule=schedule,
        energy=schedule.energy(power, horizon=(t0, t1)),
        paths={fs.flow.id: fs.path for fs in schedules},
    )
