"""Pluggable per-window scheduling policies for the replay engine.

The :class:`~repro.traces.replay.ReplayEngine` hands each policy one
*window* of newly arrived flows plus a :class:`WindowContext` describing
the background load already committed by earlier windows (reservations
carried across the boundary).  The policy returns one
:class:`~repro.scheduling.schedule.FlowSchedule` per flow it serves —
decisions are irrevocable, exactly like the online model in
:mod:`repro.core.online`.

Six policies span the clairvoyance spectrum:

* :class:`GreedyDensityPolicy` — static shortest paths, constant density
  rate; the load-oblivious strawman (and the fastest, for 100k-flow runs);
* :class:`PowerOfTwoPolicy` / :class:`LeastLoadedPolicy` — the classic
  O(1) switch-level load-balancing baselines (packet-sim lineage) lifted
  to window policies: pick among :data:`CANDIDATE_PATHS` precomputed
  shortest candidate paths by bottleneck load — two sampled candidates
  for power-of-two-choices, all of them for least-loaded;
* :class:`OnlineDensityPolicy` — the :mod:`repro.core.online` policy made
  streaming: its routing loop, run per window against the committed
  background, one bidirectional CSR Dijkstra per flow;
* :class:`EpochDcfsPolicy` — per-epoch re-solve with the paper's optimal
  Most-Critical-First (Algorithm 1) over the window's flows on shortest
  paths; the "batch clairvoyant within the window" upper reference.
* :class:`RelaxationRoundingPolicy` — Algorithm 2 in a window: the
  F-MCF relaxation + randomized rounding pipeline run per epoch against
  the committed background: each window's elementary intervals are one
  stacked F-MCF solve, on a solver (path registry, walk cache) the
  policy keeps across windows as a cache that changes no route.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.core.dcfs import solve_dcfs
from repro.core.dcfsr import RelaxationPipeline
from repro.core.online import route_online_density
from repro.errors import InfeasibleError, TopologyError, ValidationError
from repro.flows.flow import Flow, FlowSet
from repro.sim.churn import survivor_shortest_path, survivor_topology
from repro.power.model import PowerModel
from repro.routing.background import BackgroundProfile
from repro.routing.fastpath import FastRouter, LoadLedger
from repro.routing.mcflow import check_fw_settings
from repro.routing.paths import k_shortest_paths
from repro.routing.rounding import argmax_paths, sample_paths
from repro.scheduling.schedule import FlowSchedule, density_schedule
from repro.topology.base import Topology, path_edges

__all__ = [
    "WindowContext",
    "ReplayPolicy",
    "GreedyDensityPolicy",
    "PowerOfTwoPolicy",
    "LeastLoadedPolicy",
    "OnlineDensityPolicy",
    "EpochDcfsPolicy",
    "RelaxationRoundingPolicy",
    "check_seed",
]

#: Live committed pieces as parallel ``(starts, ends, rates, edge ids)``
#: columns (see :attr:`repro.traces.replay.WindowAccountant.pieces`).
Pieces = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Shortest candidate paths per (src, dst) pair of the choice baselines.
CANDIDATE_PATHS = 4


@dataclass(frozen=True)
class WindowContext:
    """What a policy may see when scheduling one window.

    Attributes
    ----------
    topology, power:
        The fabric and its link power model.
    start, end:
        The window ``[start, end)`` the flows were released in (their
        spans may extend far beyond ``end``).
    background:
        The reservations earlier windows carried across this boundary:
        a :class:`~repro.routing.background.BackgroundProfile` resolving
        the committed load per edge (indexed by
        :meth:`Topology.edge_id`) as a step function over the window
        span and beyond — the view Relax+Round charges each elementary
        interval.  ``background_fn`` builds it on first access, so
        policies that never read it never pay for it.
    pieces:
        The same reservations as raw ``(starts, ends, rates, edge ids)``
        columns: the accountant's live pieces that end after ``start``.
        Each began no later than ``start``, which is what lets a
        :class:`~repro.routing.fastpath.LoadLedger` :meth:`~repro.
        routing.fastpath.LoadLedger.seed` with them — the load-aware
        streaming policies price committed load this way (DESIGN.md
        §20).  ``pieces_fn`` reads them on first access.
    down_edge_ids:
        Dense edge ids of links currently dead (mid-replay fault
        injection; see :mod:`repro.sim.churn`).  Empty on fault-free
        runs — and every policy's empty-set code path is byte-identical
        to its pre-churn behavior, RNG streams included.  Policies must
        not route new flows across these links; a flow with no surviving
        route is left unserved.
    """

    topology: Topology
    power: PowerModel
    start: float
    end: float
    background_fn: Callable[[], BackgroundProfile] = field(repr=False)
    pieces_fn: Callable[[], Pieces] = field(repr=False)
    down_edge_ids: frozenset[int] = frozenset()

    @cached_property
    def background(self) -> BackgroundProfile:
        return self.background_fn()

    @cached_property
    def pieces(self) -> Pieces:
        starts, ends, rates, eids = self.pieces_fn()
        live = ends > self.start
        return starts[live], ends[live], rates[live], eids[live]


def check_seed(seed) -> None:
    """Reject a rounding or sampling seed that is not an integer >= 0."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


def _hop_routes(
    flows: Sequence[Flow], ctx: WindowContext
) -> list[tuple[Flow, tuple[str, ...]]]:
    """The route-or-drop step: each flow with its hop-shortest path, or
    its survivor BFS route while links are down; a flow with no surviving
    route is dropped (left unserved)."""
    topology, down = ctx.topology, ctx.down_edge_ids
    if not down:
        return [
            (flow, topology.shortest_path(flow.src, flow.dst))
            for flow in flows
        ]
    routed = []
    for flow in flows:
        try:
            path = survivor_shortest_path(topology, down, flow.src, flow.dst)
        except TopologyError:
            continue  # no surviving route -> unserved
        routed.append((flow, path))
    return routed


def _seeded_ledger(ctx: WindowContext) -> LoadLedger:
    """A window's load ledger, seeded with the pieces earlier windows
    left live: its :meth:`~repro.routing.fastpath.LoadLedger.loads`
    price their load and the window's own commits in one pass."""
    ledger = LoadLedger(ctx.topology)
    ledger.seed(*ctx.pieces)
    return ledger


class ReplayPolicy(ABC):
    """Schedules one window of arrivals at a time, irrevocably."""

    name: str = "policy"

    @abstractmethod
    def schedule_window(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> list[FlowSchedule]:
        """Return one :class:`FlowSchedule` per served flow.

        Every returned schedule must belong to a flow of this window;
        omitting a flow marks it unserved (counted as a deadline miss).
        """

    def reset(self) -> None:
        """Clear per-run state; called by the engine before each replay."""


class GreedyDensityPolicy(ReplayPolicy):
    """Shortest path + constant density rate; sees nothing, costs nothing.

    Every flow transmits at ``D_i = w_i / (d_i - r_i)`` over its whole span
    on its hop-count shortest path — the minimum-energy single-flow answer
    (Lemma 1/2) applied obliviously.  All deadlines are met by
    construction; energy suffers from uncoordinated stacking.
    """

    name = "Greedy+Density"

    def schedule_window(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> list[FlowSchedule]:
        return [
            density_schedule(flow, path)
            for flow, path in _hop_routes(flows, ctx)
        ]


class _CandidateSetMixin:
    """:data:`CANDIDATE_PATHS`-shortest candidate-path memoization for
    the choice baselines.

    Candidates are computed once per (src, dst) pair — hop-count order,
    deterministic — and cached with their dense edge-id arrays, so the
    per-flow cost of either baseline is a handful of vector reads:
    constant in the fabric size, the property these policies exist to
    demonstrate.
    """

    def __init__(self) -> None:
        self._candidates: dict[
            tuple[str, str], tuple[tuple[tuple[str, ...], np.ndarray], ...]
        ] = {}

    def _candidates_for(
        self, topology: Topology, src: str, dst: str
    ) -> tuple[tuple[tuple[str, ...], np.ndarray], ...]:
        key = (src, dst)
        got = self._candidates.get(key)
        if got is None:
            got = tuple(
                (
                    path,
                    np.asarray(
                        [topology.edge_id(e) for e in path_edges(path)],
                        dtype=np.int64,
                    ),
                )
                for path in k_shortest_paths(
                    topology, src, dst, CANDIDATE_PATHS
                )
            )
            self._candidates[key] = got
        return got

    def _survivor_candidates(
        self,
        topology: Topology,
        down: frozenset[int],
        src: str,
        dst: str,
    ) -> tuple[tuple[tuple[str, ...], np.ndarray], ...] | None:
        """Candidates avoiding the dead links.  When every precomputed
        candidate is hit, falls back to one survivor-BFS route; ``None``
        when the pair is unroutable on the survivor fabric."""
        candidates = tuple(
            cand
            for cand in self._candidates_for(topology, src, dst)
            if not any(int(eid) in down for eid in cand[1])
        )
        if candidates:
            return candidates
        try:
            path = survivor_shortest_path(topology, down, src, dst)
        except TopologyError:
            return None
        edge_ids = np.asarray(
            [topology.edge_id(e) for e in path_edges(path)], dtype=np.int64
        )
        return ((path, edge_ids),)

    def reset(self) -> None:
        self._candidates.clear()


class PowerOfTwoPolicy(_CandidateSetMixin, ReplayPolicy):
    """Power-of-two-choices path selection, density rates.

    The classic randomized load-balancing result as a window policy:
    each flow samples two of its :data:`CANDIDATE_PATHS` precomputed
    shortest candidate paths and takes the one whose bottleneck link
    carries less committed load over the flow's span (first sample wins
    ties).  Load comes from one :class:`~repro.routing.fastpath.
    LoadLedger` seeded with the pieces earlier windows left live and fed
    this window's own commits, so choices see both earlier windows and
    earlier flows of this window.  Deadlines are met by construction.
    """

    name = "PowerOfTwo"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        check_seed(seed)
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def schedule_window(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> list[FlowSchedule]:
        ledger = _seeded_ledger(ctx)
        down = ctx.down_edge_ids
        schedules = []
        for flow in flows:
            if down:
                candidates = self._survivor_candidates(
                    ctx.topology, down, flow.src, flow.dst
                )
                if candidates is None:
                    continue  # no surviving route -> unserved
            else:
                candidates = self._candidates_for(
                    ctx.topology, flow.src, flow.dst
                )
            if len(candidates) == 1:
                path, edge_ids = candidates[0]
            else:
                first, second = self._rng.choice(
                    len(candidates), size=2, replace=False
                )
                loads = ledger.loads(flow.release, flow.deadline)
                pick = (
                    second
                    if loads[candidates[second][1]].max()
                    < loads[candidates[first][1]].max()
                    else first
                )
                path, edge_ids = candidates[pick]
            ledger.commit(edge_ids, flow.release, flow.deadline, flow.density)
            schedules.append(density_schedule(flow, path))
        return schedules

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)


class LeastLoadedPolicy(_CandidateSetMixin, ReplayPolicy):
    """Least-loaded of the shortest candidate paths, density rates.

    The deterministic endpoint of the choice spectrum: every flow scans
    all :data:`CANDIDATE_PATHS` candidates and takes the one with the
    smallest bottleneck load over its span (ties fall to the shortest,
    i.e. first, path).
    Same background-plus-ledger load view as :class:`PowerOfTwoPolicy`.
    """

    name = "LeastLoaded"

    def schedule_window(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> list[FlowSchedule]:
        ledger = _seeded_ledger(ctx)
        down = ctx.down_edge_ids
        schedules = []
        for flow in flows:
            if down:
                candidates = self._survivor_candidates(
                    ctx.topology, down, flow.src, flow.dst
                )
                if candidates is None:
                    continue  # no surviving route -> unserved
            else:
                candidates = self._candidates_for(
                    ctx.topology, flow.src, flow.dst
                )
            loads = ledger.loads(flow.release, flow.deadline)
            path, edge_ids = min(
                candidates, key=lambda cand: float(loads[cand[1]].max())
            )
            ledger.commit(edge_ids, flow.release, flow.deadline, flow.density)
            schedules.append(density_schedule(flow, path))
        return schedules


class OnlineDensityPolicy(ReplayPolicy):
    """Marginal-cost routing against committed load, density rates.

    The streaming port of :func:`repro.core.online.solve_online_density`,
    running its loop (:func:`~repro.core.online.route_online_density`)
    per window on the array-native routing core (DESIGN.md §7): a
    :class:`~repro.routing.fastpath.LoadLedger` tracks the committed
    per-edge average load — a commit touches only its own path edges,
    and each arriving flow's load view is corrected to its individual
    span window in one vectorized pass — while routing goes through a
    :class:`~repro.routing.fastpath.FastRouter` (bidirectional CSR
    Dijkstra, given each flow's weights).

    The ledger is seeded with :attr:`WindowContext.pieces`, the
    reservations earlier windows left live, so each flow's load view is
    their mean over *its own* span plus the window's own commits, read
    in the one pass (DESIGN.md §20).

    Deadlines are met by construction (density rate over the full span).
    """

    name = "Online+Density"

    def __init__(self) -> None:
        self._router: FastRouter | None = None

    def schedule_window(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> list[FlowSchedule]:
        router = self._router
        if router is None or router.topology is not ctx.topology:
            router = self._router = FastRouter(ctx.topology)
        return route_online_density(
            flows, router, _seeded_ledger(ctx), ctx.power, ctx.down_edge_ids
        )


class EpochDcfsPolicy(ReplayPolicy):
    """Per-epoch Most-Critical-First re-solve on shortest paths.

    Each window is treated as a fresh offline DCFS instance: optimal rates
    and EDF packing *within the window's flows*, blind to the committed
    background (Algorithm 1 has no notion of external reservations —
    cross-window stacking is charged honestly by the engine's energy
    sweep).  When cross-link reservation fragmentation defeats even
    DCFS's overlap-mode fallback, the window falls back to greedy density
    scheduling and ``fallbacks`` is incremented.
    """

    name = "Epoch-DCFS"

    def __init__(self) -> None:
        self.fallbacks = 0

    def schedule_window(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> list[FlowSchedule]:
        routed = _hop_routes(flows, ctx)
        if not routed:
            return []
        flow_set = FlowSet([flow for flow, _ in routed])
        paths = {flow.id: path for flow, path in routed}
        try:
            result = solve_dcfs(flow_set, ctx.topology, paths, ctx.power)
        except InfeasibleError:
            self.fallbacks += 1
            return [density_schedule(flow, path) for flow, path in routed]
        return list(result.schedule)

    def reset(self) -> None:
        self.fallbacks = 0


class RelaxationRoundingPolicy(ReplayPolicy):
    """Algorithm 2 in a window: F-MCF relaxation + randomized rounding.

    Each window's arrivals form an offline DCFSR instance (their spans
    may stretch far past the window): the policy solves all of the
    window's elementary intervals as one stacked Frank–Wolfe relaxation
    (:meth:`~repro.routing.mcflow.FrankWolfeSolver.solve_stacked`),
    certified on the window's total gap, aggregates
    every flow's ``w_bar`` in registry-id space, draws one route per flow
    in a single batched sampling pass, and commits each flow at its
    density over its whole span — so deadlines are met by construction,
    exactly like the offline Random-Schedule.

    Streaming specifics:

    * **Cached pipelines**: the policy keeps one
      :class:`~repro.core.dcfsr.RelaxationPipeline` — solver, path
      registry and walk caches — across a run's windows, plus one on the
      survivor fabric while links are down; :meth:`reset` drops both.
      They are caches: a window's routes depend only on its flows, the
      committed background and the rounding draw, so a fresh pipeline
      per window commits the same schedules.
    * **Committed background**: the engine's carried reservations enter
      the relaxation so new flows route around traffic committed by
      earlier windows.  The interval-resolved
      :class:`~repro.routing.background.BackgroundProfile` is threaded
      down to :func:`~repro.core.relaxation.solve_relaxation`, which
      charges each elementary interval the profile's exact mean over
      that interval's own bounds.
    * **Drift accounting**: :attr:`max_weight_drift` tracks the worst
      pre-normalization deviation of any flow's aggregated ``w_bar``
      from 1 seen this run; the engine surfaces it on
      :meth:`~repro.traces.replay.ReplayReport.summary`.
    * **One rounding stream per run**, ``default_rng(seed)``; the
      sharded service's shard workers :meth:`reseed` it per window with
      ``(seed, shard, k)``.
    """

    name = "Relax+Round"

    def __init__(
        self,
        seed: int = 0,
        fw_max_iterations: int = 60,
        fw_gap_tolerance: float = 1e-3,
        rounding: str = "random",
    ) -> None:
        if rounding not in ("random", "deterministic"):
            raise ValidationError(f"unknown rounding mode {rounding!r}")
        check_seed(seed)
        check_fw_settings(fw_max_iterations, fw_gap_tolerance)
        self._seed = seed
        self._fw_max_iterations = fw_max_iterations
        self._fw_gap_tolerance = fw_gap_tolerance
        self._rounding = rounding
        self.reset()

    def _pipeline(self, ctx: WindowContext) -> RelaxationPipeline:
        pipeline = self._base_pipeline
        if (
            pipeline is None
            or pipeline.topology is not ctx.topology
            or pipeline.power is not ctx.power
        ):
            pipeline = self._base_pipeline = RelaxationPipeline(
                ctx.topology,
                ctx.power,
                max_iterations=self._fw_max_iterations,
                gap_tolerance=self._fw_gap_tolerance,
            )
        return pipeline

    def schedule_window(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> list[FlowSchedule]:
        if ctx.down_edge_ids:
            pipeline, background, flows = self._survivor(flows, ctx)
            if not flows:
                return []
        else:
            pipeline, background = self._pipeline(ctx), ctx.background
        flow_set = FlowSet(flows)
        relaxation = pipeline.solve(flow_set, background=background)
        weights = pipeline.weights(flow_set, relaxation)
        if weights.max_drift > self.max_weight_drift:
            self.max_weight_drift = weights.max_drift
        if self._rounding == "deterministic":
            paths = argmax_paths(weights)
        else:
            paths = sample_paths(weights, self._rng)
        self.windows_solved += 1
        return [
            density_schedule(flow, path) for flow, path in zip(flows, paths)
        ]

    def _survivor(
        self, flows: Sequence[Flow], ctx: WindowContext
    ) -> tuple[RelaxationPipeline, BackgroundProfile | None, list[Flow]]:
        """The dead-link window: survivor pipeline, background, flows.

        A survivor :class:`~repro.core.dcfsr.RelaxationPipeline` (its own
        topology, registry and caches) is cached apart from the base
        one, so a replay that never sees a fault follows the base path
        byte for byte; it is rebuilt whenever the dead-link set changes.
        Survivor node paths are valid parent paths verbatim, so commits
        need no translation.  Flows with no surviving route are dropped
        by the shared route-or-drop step (left unserved); when none
        survives the background is never built and comes back ``None``.
        """
        down = ctx.down_edge_ids
        entry = self._survivor_cache
        if (
            entry is None
            or entry["down"] != down
            or entry["parent"] is not ctx.topology
        ):
            survivor, edge_map = survivor_topology(ctx.topology, down)
            entry = self._survivor_cache = {
                "down": down,
                "parent": ctx.topology,
                "edge_map": edge_map,
                "pipeline": RelaxationPipeline(
                    survivor,
                    ctx.power,
                    max_iterations=self._fw_max_iterations,
                    gap_tolerance=self._fw_gap_tolerance,
                ),
            }
        served = [flow for flow, _ in _hop_routes(flows, ctx)]
        background = (
            ctx.background.restrict(entry["edge_map"]) if served else None
        )
        return entry["pipeline"], background, served

    def reseed(self, seed) -> None:
        """Restart the rounding stream from ``seed`` (any
        ``numpy.random.default_rng`` seed) and clear
        :attr:`max_weight_drift`; the cached pipelines stay."""
        self._rng = np.random.default_rng(seed)
        self.max_weight_drift = 0.0

    def reset(self) -> None:
        self.reseed(self._seed)
        self._base_pipeline: RelaxationPipeline | None = None
        self._survivor_cache: dict | None = None
        self.windows_solved = 0
