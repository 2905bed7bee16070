"""Reference convex solvers used to certify the combinatorial algorithms.

The paper appeals to generic convex programming twice:

* program **(P1)** — the DCFS rate-assignment program (Section III-B),
  solvable in polynomial time by the Ellipsoid method; and
* the per-interval **F-MCF** relaxation inside Random-Schedule
  (Definition 4), "optimally solved by convex programming".

Neither an LP library nor a disciplined-convex framework is available
offline, so this module provides small, dependable scipy-based reference
solvers.  They are *test oracles*: quality over speed, intended for
instances with a handful of flows/links, used to certify

* that Most-Critical-First attains (P1)'s optimum, and
* that the Frank–Wolfe solver attains the F-MCF optimum.

No replay, experiment or library path runs them, and they are the only
code that loads :mod:`scipy.optimize`, so they live beside the tests;
tests import them as ``tests.oracles.convex``.

(P1) is solved after the substitution ``u_i = 1/s_i`` which makes both the
objective ``sum_i |P_i| w_i mu u_i^(1-alpha)`` and the interval constraints
``sum w_i u_i <= length`` convex/linear; the exponential family of subset
constraints collapses to the O(n^2) interval constraints (only subsets
spanning a full ``[release, deadline]`` window can be binding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import optimize

from repro.errors import SolverError, ValidationError
from repro.flows.flow import FlowSet
from repro.power.model import PowerModel
from repro.topology.base import Edge, Topology, path_edges

__all__ = ["P1Solution", "solve_p1_reference", "FmcfReference", "solve_fmcf_reference"]


@dataclass(frozen=True)
class P1Solution:
    """Optimal rates and objective of program (P1)."""

    rates: Mapping[int | str, float]
    objective: float


def _interval_constraints(
    flows: FlowSet, link_members: Mapping[Edge, list[int | str]]
) -> list[tuple[list[int | str], float]]:
    """All potentially binding (P1) constraints.

    For each link and each pair ``(a, b)`` of a release and a later
    deadline among the link's flows, the flows with span inside ``[a, b]``
    must fit: ``sum w_i / s_i <= b - a``.
    """
    constraints: list[tuple[list[int | str], float]] = []
    for edge in sorted(link_members):
        members = link_members[edge]
        releases = sorted({flows[i].release for i in members})
        deadlines = sorted({flows[i].deadline for i in members})
        for a in releases:
            for b in deadlines:
                if b <= a:
                    continue
                inside = [
                    i
                    for i in members
                    if flows[i].release >= a and flows[i].deadline <= b
                ]
                if inside:
                    constraints.append((inside, b - a))
    return constraints


def solve_p1_reference(
    flows: FlowSet,
    topology: Topology,
    paths: Mapping[int | str, Sequence[str]],
    power: PowerModel,
    tol: float = 1e-10,
) -> P1Solution:
    """Solve (P1) to high accuracy with SLSQP on the ``u = 1/s`` program.

    Returns the optimal single rates per flow and the objective
    ``sum_i |P_i| w_i mu s_i^(alpha-1)``.
    """
    ids = list(flows.ids)
    index = {fid: k for k, fid in enumerate(ids)}
    hops = {}
    link_members: dict[Edge, list[int | str]] = {}
    for flow in flows:
        edges = path_edges(tuple(paths[flow.id]))
        hops[flow.id] = len(edges)
        for edge in edges:
            link_members.setdefault(edge, []).append(flow.id)

    weights = np.array([flows[i].size for i in ids])
    coeff = np.array(
        [hops[i] * flows[i].size * power.mu for i in ids]
    )
    exponent = 1.0 - power.alpha  # objective term u^(1-alpha), convex for u>0

    def objective(u: np.ndarray) -> float:
        return float(np.sum(coeff * u**exponent))

    def gradient(u: np.ndarray) -> np.ndarray:
        return coeff * exponent * u ** (exponent - 1.0)

    raw_constraints = _interval_constraints(flows, link_members)
    a_rows = []
    lengths = []
    for members, length in raw_constraints:
        row = np.zeros(len(ids))
        for fid in members:
            row[index[fid]] += weights[index[fid]]
        a_rows.append(row)
        lengths.append(length)
    a_mat = np.vstack(a_rows)
    b_vec = np.array(lengths)

    slsqp_constraints = [
        {
            "type": "ineq",
            "fun": (lambda u, row=row, length=length: length - row @ u),
            "jac": (lambda u, row=row: -row),
        }
        for row, length in zip(a_rows, lengths)
    ]

    # Start at the per-flow density rates (u = span / w); the solvers
    # restore feasibility if nested spans make this infeasible.
    u0 = np.array([flows[i].span_length / flows[i].size for i in ids])
    lower = 1e-9

    def feasible(u: np.ndarray, slack: float = 1e-6) -> bool:
        return bool(np.all(a_mat @ u <= b_vec * (1.0 + slack) + slack))

    best: tuple[float, np.ndarray] | None = None
    # SLSQP occasionally stalls with "positive directional derivative";
    # retry from perturbed starts, then fall back to trust-constr.
    for attempt, (start, ftol) in enumerate(
        [(u0, tol), (u0 * 0.5, 1e-8), (u0 * 0.25, 1e-7)]
    ):
        result = optimize.minimize(
            objective,
            start,
            jac=gradient,
            method="SLSQP",
            bounds=[(lower, None)] * len(ids),
            constraints=slsqp_constraints,
            options={"maxiter": 500, "ftol": ftol},
        )
        if feasible(result.x):
            value = objective(result.x)
            if best is None or value < best[0]:
                best = (value, result.x.copy())
            if result.success:
                break
    if best is None:
        result = optimize.minimize(
            objective,
            u0 * 0.5,
            jac=gradient,
            method="trust-constr",
            bounds=optimize.Bounds(lower, np.inf),
            constraints=[optimize.LinearConstraint(a_mat, -np.inf, b_vec)],
            options={"maxiter": 2000, "gtol": 1e-9},
        )
        if not feasible(result.x):
            raise SolverError(
                f"(P1) reference solve failed: {result.message}"
            )
        best = (objective(result.x), result.x.copy())

    value, u_best = best
    rates = {fid: float(1.0 / u_best[index[fid]]) for fid in ids}
    return P1Solution(rates=rates, objective=float(value))


@dataclass(frozen=True)
class FmcfReference:
    """Optimal value and per-link loads of the F-MCF reference solve."""

    objective: float
    link_loads: Mapping[Edge, float]


def solve_fmcf_reference(
    topology: Topology,
    demands: Sequence[tuple[str, str, float]],
    cost: Callable[[float], float],
    cost_derivative: Callable[[float], float],
    tol: float = 1e-9,
) -> FmcfReference:
    """Solve min ``sum_e cost(x_e)`` s.t. flow conservation, ``y >= 0``.

    Exact edge-flow formulation on the directed expansion of the topology;
    one variable per (commodity, arc).  Only suitable for small graphs —
    this is the oracle the Frank–Wolfe solver is tested against.

    ``cost`` must be convex and differentiable with ``cost(0) == 0`` after
    envelope treatment (see :meth:`repro.power.PowerModel.envelope`).
    """
    nodes = topology.nodes
    node_idx = {n: i for i, n in enumerate(nodes)}
    arcs: list[tuple[int, int, int]] = []  # (u, v, undirected edge id)
    for eid, (u, v) in enumerate(topology.edges):
        arcs.append((node_idx[u], node_idx[v], eid))
        arcs.append((node_idx[v], node_idx[u], eid))
    num_arcs = len(arcs)
    num_comm = len(demands)
    if num_comm == 0:
        raise ValidationError("solve_fmcf_reference requires >= 1 demand")
    n_var = num_comm * num_arcs

    arc_edge = np.array([eid for _, _, eid in arcs])
    num_edges = topology.num_edges

    def link_loads(y: np.ndarray) -> np.ndarray:
        loads = np.zeros(num_edges)
        flat = y.reshape(num_comm, num_arcs).sum(axis=0)
        np.add.at(loads, arc_edge, flat)
        return loads

    def objective(y: np.ndarray) -> float:
        return float(sum(cost(x) for x in link_loads(y)))

    def gradient(y: np.ndarray) -> np.ndarray:
        loads = link_loads(y)
        marginal = np.array([cost_derivative(x) for x in loads])
        per_arc = marginal[arc_edge]
        return np.tile(per_arc, num_comm)

    # Flow conservation: for each commodity k and node n,
    # outflow - inflow = +D (source), -D (sink), 0 otherwise.  The sink row
    # is the negated sum of all the others, so it is dropped to keep the
    # equality system full-rank (SLSQP's LSQ subproblem rejects redundant
    # constraints with "Singular matrix C").
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for k, (src, dst, demand) in enumerate(demands):
        if demand <= 0:
            raise ValidationError(f"demand {k} must be positive, got {demand}")
        for n, node in enumerate(nodes):
            if node == dst:
                continue
            row = np.zeros(n_var)
            for a, (u, v, _eid) in enumerate(arcs):
                if u == n:
                    row[k * num_arcs + a] += 1.0
                if v == n:
                    row[k * num_arcs + a] -= 1.0
            rows.append(row)
            rhs.append(demand if node == src else 0.0)
    a_eq = np.vstack(rows)
    b_eq = np.array(rhs)

    constraints = [
        {
            "type": "eq",
            "fun": lambda y: a_eq @ y - b_eq,
            "jac": lambda y: a_eq,
        }
    ]

    # Warm start: put each commodity on a shortest path.
    y0 = np.zeros(n_var)
    arc_lookup = {(u, v): a for a, (u, v, _eid) in enumerate(arcs)}
    for k, (src, dst, demand) in enumerate(demands):
        path = topology.shortest_path(src, dst)
        for u, v in zip(path, path[1:]):
            a = arc_lookup[(node_idx[u], node_idx[v])]
            y0[k * num_arcs + a] = demand

    result = optimize.minimize(
        objective,
        y0,
        jac=gradient,
        method="SLSQP",
        bounds=[(0.0, None)] * n_var,
        constraints=constraints,
        options={"maxiter": 800, "ftol": tol},
    )
    if not result.success:
        raise SolverError(f"F-MCF reference solve failed: {result.message}")
    loads = link_loads(result.x)
    return FmcfReference(
        objective=float(result.fun),
        link_loads={
            edge: float(loads[topology.edge_id(edge)]) for edge in topology.edges
        },
    )
