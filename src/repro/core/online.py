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

The hot path runs on the array-native routing core (DESIGN.md §7): the
per-edge average load over each arriving flow's span comes from an
incremental :class:`~repro.routing.fastpath.LoadLedger` (a commit touches
only its own path edges; span-window corrections are one vectorized pass
per arrival) instead of an O(E x segments) rebuild of per-edge
:class:`~repro.scheduling.timeline.PiecewiseConstant` profiles, and
routing goes through a :class:`~repro.routing.fastpath.FastRouter`
(bidirectional Dijkstra over the topology's CSR adjacency).
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import BaselineResult
from repro.flows.flow import FlowSet
from repro.power.model import PowerModel
from repro.routing.costs import envelope_cost
from repro.routing.fastpath import FastRouter, LoadLedger
from repro.scheduling.schedule import Schedule, density_schedule
from repro.topology.base import Topology

__all__ = ["solve_online_density"]


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
    cost = envelope_cost(power)
    router = FastRouter(topology)
    ledger = LoadLedger(topology)
    order = sorted(flows, key=lambda f: (f.release, str(f.id)))
    paths: dict[int | str, tuple[str, ...]] = {}
    flow_schedules = []

    for flow in order:
        loads = ledger.loads(flow.release, flow.deadline)
        path, edge_ids = router.route(
            flow.src, flow.dst, np.maximum(cost.derivative(loads), 1e-12)
        )
        paths[flow.id] = path
        ledger.commit(edge_ids, flow.release, flow.deadline, flow.density)
        flow_schedules.append(density_schedule(flow, path))

    schedule = Schedule(flow_schedules)
    t0, t1 = flows.horizon
    return BaselineResult(
        name="Online+Density",
        schedule=schedule,
        energy=schedule.energy(power, horizon=(t0, t1)),
        paths=paths,
    )
