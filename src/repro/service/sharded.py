"""Sharded streaming replay: partitioned relaxation shards, pipelined windows.

The single-owner :class:`~repro.traces.replay.ReplayEngine` runs one
policy on one fabric in one process.  This module scales the same replay
semantics out: the fabric is split by :func:`~repro.service.partition.
partition_topology` into shards, each shard owns a **warm**
:class:`~repro.core.dcfsr.RelaxationPipeline` living in a long-lived
:class:`~repro.experiments.parallel.WorkerGroup` process, and each window
of arrivals is scattered to the shards that can solve its flows locally.
Only two things ever cross a process boundary per window: the shard's
restriction of the background load going out (a
:class:`~repro.routing.background.BackgroundProfile`), and
``(flow id, path)`` pairs coming back — the DESIGN.md Section 11 shard
protocol.

Division of labor per window ``k``:

* **Intra-shard flows** (both endpoints in one connected component of one
  shard) are relaxed and rounded *inside* that shard's worker, against
  the shard-local restriction of the lagged background profile.
* **Cross-shard flows** are routed in the parent on the boundary-aware
  global view by :class:`~repro.traces.policies.OnlineDensityPolicy`
  (marginal envelope-cost routing; :class:`~repro.traces.policies.
  GreedyDensityPolicy` in greedy mode): cheap, load-aware, and
  deterministic.  They are the only traffic that can load a boundary
  link.
* **Everything else is the shared window loop.**  This engine is the
  pipelined executor of :class:`~repro.traces.replay.WindowLoop`, the
  loop :class:`~repro.traces.replay.ReplayEngine` runs inline: ingest,
  window bounds, the commit step (here in arrival order), settlement,
  the trailing sweep and the report are the same code in both engines.
  This module adds partitioning, dispatch, the pipeline lag, crash
  recovery, checkpoints, dark-shard evacuation and the per-shard and
  per-window telemetry.

**Pipelining.**  ``pipeline_depth = d`` keeps up to ``d`` windows in
flight: window ``k`` is dispatched as soon as its arrivals are complete,
and the results of window ``k - d`` are collected (committed, settled)
just before.  The background visible to window ``k`` is therefore the
commitments of windows ``<= k - d`` — *structurally* lagged, a function
of the window index alone, never of worker timing.  That staleness is
the price of overlap (``d = 1`` recovers the single-owner engine's
current-background semantics) and is exactly what makes
:meth:`snapshot_state`/:meth:`restore_state` reproduce an uninterrupted
run bit for bit: a snapshot drains worker *results* into the in-flight
entries without committing them, so a restored engine replays the same
dispatch/collect schedule with the same lagged views.

**Degradation** is decided per window by a
:class:`~repro.service.degrade.DegradeController` and recorded honestly
on the report (see :mod:`repro.service.degrade`).
"""

from __future__ import annotations

import pickle
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Iterable, Sequence

import numpy as np

from repro.core.dcfsr import RelaxationPipeline
from repro.errors import TopologyError, ValidationError
from repro.experiments.parallel import WorkerCrash, WorkerGroup
from repro.flows.flow import Flow, FlowSet
from repro.power.model import PowerModel
from repro.routing.background import BackgroundProfile
from repro.routing.mcflow import check_fw_settings
from repro.routing.rounding import argmax_paths, sample_paths
from repro.scheduling.schedule import density_schedule
from repro.service.degrade import DegradeController, SolveBudget
from repro.service.partition import TopologyPartition, partition_topology
from repro.sim.churn import (
    WORKER_CRASH,
    FaultEvent,
    FaultSchedule,
    survivor_shortest_path,
)
from repro.topology.base import Topology, path_edges
from repro.traces.policies import GreedyDensityPolicy, OnlineDensityPolicy
from repro.traces.replay import (
    ReplayReport,
    ShardStats,
    WindowAccountant,
    WindowLoop,
)

__all__ = ["WindowStats", "ShardedReplayEngine"]

SNAPSHOT_KIND = "repro-sharded-replay"
# v2: the accountant snapshot switched from the per-flow "live" dict to
# flat piece arrays, and the config grew ``background_mode``.
# v3: churn — link-fault/repair state, worker-crash events, per-shard
# checkpoints, and the dead-link element in window messages.
# v4: correlated failure domains — the churn snapshot carries per-link
# outage multiplicities plus the domain registry/down-domain/down-switch
# state bit-for-bit, in-flight entries pin their dispatch-time dead-link
# view, and the service state grew the dark-shard (evacuation) set and
# the ``failure_domains``/``srlg_diverse`` config.
# v5: the stream, counters, accountant and churn state move under one
# ``"loop"`` key (the shared WindowLoop's own snapshot); in-flight
# entries drop their window bounds (derived from the index); the
# topology fingerprint moves out of the config, which is now exactly
# the constructor's keyword arguments.
# v6: the config drops ``background_mode`` (the window-mean mode is gone).
# v7: the churn counters lose the relaxation repair tier's two keys; the
# service state carries ``kills_upto``, the kill schedule's enacted boundary.
SNAPSHOT_VERSION = 7


@dataclass(frozen=True)
class WindowStats:
    """Per-window service telemetry (what ``ReplayService.poll`` returns)."""

    index: int
    start: float
    end: float
    arrivals: int
    served: int
    misses: int
    cross_flows: int
    degraded: bool
    #: Critical-path worker solve time (max over the window's shards).
    solve_s: float

    def describe(self) -> str:
        tag = " DEGRADED" if self.degraded else ""
        return (
            f"window {self.index} [{self.start:g}, {self.end:g}): "
            f"{self.served}/{self.arrivals} served "
            f"({self.cross_flows} cross-shard), {self.misses} misses, "
            f"solve {self.solve_s:.3g}s{tag}"
        )


class _ShardSolver:
    """Worker-side handler: one warm relaxation pipeline per shard.

    Built *inside* the forked worker by the :class:`WorkerGroup` factory,
    so the pipeline's solver state never crosses a pipe — only window
    messages and ``(flow id, path)`` results do.  The pipeline is created
    lazily on the first relaxed window (greedy-mode services never pay
    for it).
    """

    def __init__(
        self,
        shard,
        power: PowerModel,
        config: tuple[int, int, float, str],
    ) -> None:
        self._shard = shard
        self._power = power
        seed, self._fw_iters, self._fw_gap, self._rounding = config
        self._pipeline: RelaxationPipeline | None = None
        self._rng = np.random.default_rng((seed, shard.index))
        self.max_weight_drift = 0.0

    def __call__(self, msg):
        kind = msg[0]
        if kind == "window":
            return self._solve_window(msg[1], msg[2], msg[3], msg[4])
        if kind == "drift":
            return self.max_weight_drift
        if kind == "snapshot":
            return pickle.dumps(
                {
                    "pipeline": self._pipeline,
                    "rng": self._rng,
                    "drift": self.max_weight_drift,
                }
            )
        if kind == "restore":
            state = pickle.loads(msg[1])
            self._pipeline = state["pipeline"]
            self._rng = state["rng"]
            self.max_weight_drift = state["drift"]
            return None
        raise ValidationError(f"unknown shard message {kind!r}")

    def _solve_window(
        self,
        flows: Sequence[Flow],
        background: BackgroundProfile | None,
        relax: bool,
        down_local: frozenset[int],
    ):
        t_start = perf_counter()
        if relax:
            if self._pipeline is None:
                self._pipeline = RelaxationPipeline(
                    self._shard.topology,
                    self._power,
                    max_iterations=self._fw_iters,
                    gap_tolerance=self._fw_gap,
                )
            flow_set = FlowSet(flows)
            relaxation = self._pipeline.solve(flow_set, background=background)
            weights = self._pipeline.weights(flow_set, relaxation)
            if weights.max_drift > self.max_weight_drift:
                self.max_weight_drift = weights.max_drift
            if self._rounding == "deterministic":
                paths = argmax_paths(weights)
            else:
                paths = sample_paths(weights, self._rng)
        else:
            topology = self._shard.topology
            paths = [topology.shortest_path(f.src, f.dst) for f in flows]
        if down_local:
            # Fault fix-up: any solved/cached route crossing a dead local
            # link is replaced by the survivor BFS route; a pair with no
            # surviving route ships ``None`` (the parent leaves the flow
            # unserved).  The empty-set path above stays byte-identical.
            topo = self._shard.topology
            edge_id = topo.edge_id
            fixed = []
            for flow, path in zip(flows, paths):
                if any(
                    edge_id(e) in down_local for e in path_edges(path)
                ):
                    try:
                        path = survivor_shortest_path(
                            topo, down_local, flow.src, flow.dst
                        )
                    except TopologyError:
                        path = None
                fixed.append(path)
            paths = fixed
        pairs = [(flow.id, path) for flow, path in zip(flows, paths)]
        return pairs, perf_counter() - t_start, not relax


@dataclass
class _InFlight:
    """One dispatched-but-uncommitted window (plain data, picklable)."""

    index: int
    arrivals: list[Flow]
    assign: dict  # flow id -> shard index (cross-shard flows absent)
    shard_ids: tuple[int, ...]
    cross: dict = field(default_factory=dict)  # flow id -> FlowSchedule
    relax: bool = True
    #: shard index -> (pairs, solve_s, degraded); populated from the
    #: workers either at collect time or by a snapshot drain.
    results: dict | None = None
    #: Dispatch-time dead-link view — the survivor graph every route in
    #: this window was chosen against; collect attributes unserved flows
    #: with no path on it to failure (exactly once, never committed).
    down: frozenset = frozenset()


class ShardedReplayEngine:
    """Streaming replay over partitioned relaxation shards.

    The incremental counterpart of :class:`~repro.traces.replay.
    ReplayEngine`: arrivals are *fed* one at a time (the service's
    ``submit``), windows dispatch to shard workers as soon as they close,
    and :meth:`finish` settles everything into one
    :class:`~repro.traces.replay.ReplayReport` with a per-shard
    breakdown.  :meth:`run` wraps feed/finish for whole traces.

    Parameters
    ----------
    topology, power:
        The global fabric and link power model.
    window:
        Epoch length in trace time units.
    partition:
        An explicit :class:`TopologyPartition`; default partitions
        ``topology`` on its natural group boundaries (``num_shards``
        selects the greedy edge cut for unannotated fabrics).
    mode:
        ``"relax"`` (intra-shard F-MCF relaxation + rounding, the paper's
        Algorithm 2 per shard) or ``"greedy"`` (shard-local shortest
        path + density — the deterministic fallback the degrade path and
        the equivalence pins use).
    pipeline_depth:
        Windows in flight; window ``k`` sees the background of windows
        ``<= k - pipeline_depth``.  ``1`` disables overlap and recovers
        the single-owner engine's background semantics.
    budget:
        Optional :class:`~repro.service.degrade.SolveBudget`; exhausted
        windows degrade to greedy and are counted on the report.
    faults:
        Optional :class:`~repro.sim.churn.FaultSchedule`.  Fabric events
        (link, whole-switch and SRLG outages alike) feed the same
        :class:`~repro.traces.repair.ChurnManager` the single-owner
        engine uses, which reroutes displaced flows greedily on the
        survivor fabric; ``worker_crash`` events kill the named shard
        worker at the next window dispatch, exercising the recovery
        machinery below.
    failure_domains:
        Optional :class:`~repro.sim.churn.FailureDomain` iterable seeding
        the churn manager's risk-group registry up front (otherwise
        groups are learned from observed domain events).
    srlg_diverse:
        Penalize repair routes sharing a risk group with a currently-down
        domain (see :data:`~repro.traces.repair.SRLG_PENALTY`).  With no
        domains down the replay is bit-identical either way.
    heartbeat_s:
        Bound on each worker collect; a worker silent for this long is
        declared crashed and restarted.  ``None`` waits forever (crashes
        are still detected via pipe EOF).
    max_worker_restarts:
        Consecutive failed recoveries of one shard before giving up
        (successful collects reset the count).
    checkpoint_every:
        Opportunistically snapshot each shard worker's state every this
        many windows (only while the shard is quiescent, i.e. has no
        results in flight); a restarted worker restores the latest
        checkpoint before uncollected windows are resubmitted.  ``None``
        disables checkpoints — recovery then resubmits against fresh
        (cold) worker state, which is slower but loses nothing: committed
        flows live in the parent accountant, never in a worker.
    resync_windows:
        Windows a freshly restarted shard solves greedily (deterministic,
        cheap) while its relaxation state re-warms.
    """

    def __init__(
        self,
        topology: Topology,
        power: PowerModel,
        window: float,
        *,
        partition: TopologyPartition | None = None,
        num_shards: int | None = None,
        mode: str = "relax",
        seed: int = 0,
        fw_max_iterations: int = 60,
        fw_gap_tolerance: float = 1e-3,
        rounding: str = "random",
        pipeline_depth: int = 2,
        budget: SolveBudget | None = None,
        keep_schedules: bool = False,
        tol: float = 1e-6,
        faults: FaultSchedule | None = None,
        failure_domains: Iterable | None = None,
        srlg_diverse: bool = True,
        heartbeat_s: float | None = None,
        max_worker_restarts: int = 3,
        checkpoint_every: int | None = None,
        resync_windows: int = 2,
    ) -> None:
        if not window > 0:
            raise ValidationError(f"window must be > 0, got {window}")
        if mode not in ("relax", "greedy"):
            raise ValidationError(f"unknown mode {mode!r}")
        if mode == "relax":
            # Checked here, not in the shard workers that build solvers.
            check_fw_settings(fw_max_iterations, fw_gap_tolerance)
        if rounding not in ("random", "deterministic"):
            raise ValidationError(f"unknown rounding mode {rounding!r}")
        if pipeline_depth < 1:
            raise ValidationError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
        if partition is None:
            partition = partition_topology(topology, num_shards)
        elif partition.topology is not topology:
            raise ValidationError(
                "partition was built for a different topology"
            )
        if max_worker_restarts < 1:
            raise ValidationError(
                f"max_worker_restarts must be >= 1, got {max_worker_restarts}"
            )
        if resync_windows < 0:
            raise ValidationError(
                f"resync_windows must be >= 0, got {resync_windows}"
            )
        self._topology = topology
        self._power = power
        self._window = window
        self._partition = partition
        self._mode = mode
        self._seed = seed
        self._fw_iters = fw_max_iterations
        self._fw_gap = fw_gap_tolerance
        self._rounding = rounding
        self._depth = pipeline_depth
        self._budget = budget
        self._tol = tol
        self._failure_domains = (
            tuple(failure_domains) if failure_domains is not None else None
        )
        self._srlg_diverse = srlg_diverse
        # Cross-shard flows, routed in the parent on the global view.
        self._cross_policy = (
            OnlineDensityPolicy() if mode == "relax" else GreedyDensityPolicy()
        )
        self._controller = DegradeController(budget)
        self._inflight: deque[_InFlight] = deque()
        self.window_log: list[WindowStats] = []
        self._loop = WindowLoop(
            topology,
            power,
            window,
            WindowAccountant(topology, power, tol=tol),
            self,
            keep_schedules=keep_schedules,
            tol=tol,
            faults=faults,
            domains=self._failure_domains,
            srlg_diverse=srlg_diverse,
        )
        #: Pipeline skip state: the largest dispatched deadline.
        self._max_deadline = -np.inf
        self._finished = False
        self._closed = False

        # Crash tolerance.
        self._heartbeat_s = heartbeat_s
        self._max_worker_restarts = max_worker_restarts
        self._ckpt_every = checkpoint_every
        self._resync = resync_windows
        #: Pending ``worker_crash`` events, time-sorted; every event
        #: before ``_kills_upto`` (the last dispatch boundary) is enacted.
        self._worker_events: list[FaultEvent] = sorted(
            faults.worker_events() if faults is not None else (),
            key=lambda e: e.time,
        )
        for event in self._worker_events:
            self._check_shard(event.shard)
        self._kills_upto = -np.inf
        shards = partition.shards
        n = len(shards)
        #: Per-shard ledger of submitted-but-uncollected window messages
        #: (append at submit, popleft on successful collect) — exactly
        #: what recovery resubmits after a restart.
        self._sent: list[deque] = [deque() for _ in range(n)]
        self._checkpoints: list = [None] * n
        self._last_ckpt = [0] * n
        self._restart_attempts = [0] * n
        self._resync_left = [0] * n
        self._worker_restarts = 0
        #: Shards whose owning switch was down at the last dispatch —
        #: their flows are evacuated to the parent's cross-shard router
        #: and the worker is quiesced; a dark→lit transition triggers the
        #: same greedy resync a restarted worker gets.
        self._dark_prev: frozenset[int] = frozenset()
        self._rev_edge_maps = [
            {int(pid): li for li, pid in enumerate(shard.edge_map)}
            for shard in shards
        ]

        # Service-side counters (the loop keeps the report's).
        self._degraded_windows = 0
        #: One ShardStats row of counters per shard, then one for the
        #: cross-shard flows the parent routes.
        self._per_shard = [
            {"flows": 0, "energy": 0.0, "misses": 0, "degraded_windows": 0,
             "solve_s": 0.0, "evacuated": 0}
            for _ in range(n + 1)
        ]

        # Fork last: every check above runs before a worker exists, so a
        # rejected configuration cannot leak child processes.
        config = (seed, fw_max_iterations, fw_gap_tolerance, rounding)
        self._group = WorkerGroup(
            lambda i: _ShardSolver(shards[i], power, config), n
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def partition(self) -> TopologyPartition:
        return self._partition

    @property
    def name(self) -> str:
        label = "Relax" if self._mode == "relax" else "Greedy"
        return f"Sharded+{label}[{self._partition.num_shards}]"

    @property
    def flows_fed(self) -> int:
        return self._loop.flows_seen

    # ------------------------------------------------------------------
    # Streaming admission.
    # ------------------------------------------------------------------
    def feed(self, flow: Flow) -> None:
        """Admit one flow (releases must be nondecreasing)."""
        if self._finished:
            raise ValidationError("engine already finished")
        if self._closed:
            raise ValidationError("engine is closed")
        self._loop.feed(flow)

    def feed_fault(self, event: FaultEvent) -> None:
        """Admit one fault event (same nondecreasing-time stream as flows).

        Fabric events go to the window loop's churn manager;
        ``worker_crash`` events join the dispatch-time kill schedule,
        unless it has already been enacted past them.
        """
        if event.kind == WORKER_CRASH:
            self._check_shard(event.shard)
            if event.time < self._kills_upto:
                raise ValidationError(
                    f"worker_crash at t={event.time} arrived after the "
                    f"kill schedule was enacted through {self._kills_upto}"
                )
            insort(self._worker_events, event, key=lambda e: e.time)
        else:
            self._loop.feed_fault(event)

    def _check_shard(self, index: int) -> None:
        if not 0 <= index < self._partition.num_shards:
            raise ValidationError(
                f"no shard {index}; partition has "
                f"{self._partition.num_shards}"
            )

    def run(self, trace: Iterable[Flow]) -> ReplayReport:
        """Feed an entire trace and :meth:`finish` — whole-trace sugar.

        The stream may interleave :class:`~repro.sim.churn.FaultEvent`
        items (``TraceReader(path, include_faults=True)``).
        """
        for item in trace:
            if isinstance(item, FaultEvent):
                self.feed_fault(item)
            else:
                self.feed(item)
        return self.finish()

    # ------------------------------------------------------------------
    # Executor hooks (see WindowLoop).
    # ------------------------------------------------------------------
    def busy_window(self, after: int, upto: int) -> int:
        """Deterministic quiet-gap skip.

        Unlike the inline engine this cannot consult the live ledger
        (in-flight windows are not committed yet), so it uses the
        equivalent full-information test: a dispatched flow's span ends
        exactly at its deadline, so windows before ``after`` still carry
        load iff any dispatched deadline lies beyond ``after``'s start.
        A pure function of the fed prefix — the snapshot/restore pins
        rely on that.
        """
        if self._max_deadline > self._loop.bounds(after)[0]:
            return after
        return upto

    def drain(self) -> None:
        """Collect, commit and settle every window still in flight."""
        while self._inflight:
            self._collect_one()

    def close_window(self, k: int, arrivals: list[Flow]) -> None:
        """Dispatch window ``k`` (the scatter); commit and settle the
        windows the pipeline lag releases first."""
        # Commit everything old enough that its reservations become
        # visible: the structural pipeline lag.
        while self._inflight and self._inflight[0].index <= k - self._depth:
            self._collect_one()
        loop = self._loop
        # Enact scheduled worker crashes older than this window, then
        # recover immediately so the submits below reach a live worker.
        self._consume_worker_events(loop.bounds(k)[0])
        self._maybe_checkpoint(k)
        # Dark shards: a shard whose switch node is down cannot solve
        # anything meaningful locally — quiesce it (no submits) and
        # evacuate its flows to the parent's survivor-aware cross-shard
        # router.  A dark→lit transition re-warms like a worker restart:
        # the shard solves its next windows greedily while resyncing.
        dark = self._dark_shards()
        for shard_idx in sorted(self._dark_prev - dark):
            self._resync_left[shard_idx] = self._resync
        self._dark_prev = dark
        if not arrivals:
            # Bookkeeping-only entry: its collect settles the window in
            # commit order (settling now would sweep ahead of the
            # still-uncommitted in-flight windows).
            self._inflight.append(
                _InFlight(k, arrivals=[], assign={}, shard_ids=())
            )
            return
        for flow in arrivals:
            if flow.deadline > self._max_deadline:
                self._max_deadline = flow.deadline

        assign: dict = {}
        per_shard: dict[int, list[Flow]] = {}
        cross_flows: list[Flow] = []
        for flow in arrivals:
            shard = self._partition.shard_of(flow)
            if shard is None:
                cross_flows.append(flow)
            elif shard in dark:
                self._per_shard[shard]["evacuated"] += 1
                cross_flows.append(flow)
            else:
                assign[flow.id] = shard
                per_shard.setdefault(shard, []).append(flow)

        relax = self._mode == "relax"
        if relax and per_shard:
            relax = not self._controller.should_degrade(len(self._inflight))
            if not relax:
                self._degraded_windows += 1
        # The dead-link view a window dispatches against changes only at
        # collect boundaries (settle applies events before finalize), so
        # it is structurally lagged like the background — a function of
        # the dispatch/collect schedule, never of worker timing.
        down = loop.down_view()
        # One lazily built context: the shard slices and the cross-shard
        # policy read the same background, built at most once.
        ctx = loop.context(k, down, {})
        shard_ids = tuple(sorted(per_shard))
        for shard_idx in shard_ids:
            local_bg = None
            if self._mode == "relax":
                edge_map = self._partition.shards[shard_idx].edge_map
                local_bg = ctx.background.restrict(edge_map)
            rev = self._rev_edge_maps[shard_idx]
            down_local = frozenset(
                rev[pid] for pid in down if pid in rev
            )
            shard_relax = relax
            if self._resync_left[shard_idx] > 0:
                # Degrade-to-greedy while the restarted worker resyncs.
                shard_relax = False
                self._resync_left[shard_idx] -= 1
            self._submit_shard(
                shard_idx,
                (
                    "window",
                    per_shard[shard_idx],
                    local_bg,
                    shard_relax,
                    down_local,
                ),
            )
        # Route cross-shard flows in the parent while the shard solves
        # run; with the async submit above this is the window's overlap.
        # The policy is reset every window: its router's candidate cache
        # depends on history, and a restored run must not inherit a
        # different cache than the original.
        cross: dict = {}
        if cross_flows:
            self._cross_policy.reset()
            for fs in self._cross_policy.schedule_window(cross_flows, ctx):
                cross[fs.flow.id] = fs
        self._inflight.append(
            _InFlight(
                k, arrivals, assign, shard_ids, cross, relax, down=down
            )
        )

    def _dark_shards(self) -> frozenset[int]:
        """Shards owning a currently-down switch node."""
        switches = self._loop.churn.down_switches
        if not switches:
            return frozenset()
        comp = self._partition.node_component
        return frozenset(
            comp[node][0] for node in switches if node in comp
        )

    # ------------------------------------------------------------------
    # Crash tolerance: heartbeat collects, backoff restart, resubmission.
    # ------------------------------------------------------------------
    @staticmethod
    def _degrade_msg(msg):
        """Rewrite a window message to the greedy path for resubmission.

        A restarted worker re-solves its uncollected windows; forcing
        them greedy makes recovery deterministic (no warm-start state to
        reproduce) and fast.  The parent entry keeps its original
        ``relax`` flag — the report's degraded counters come from the
        worker's own ``degraded`` result bit, which reflects what
        actually ran.
        """
        return ("window", msg[1], msg[2], False, msg[4])

    def _submit_shard(self, index: int, msg) -> None:
        """Ledger-tracked submit; a dead pipe triggers recovery (which
        resubmits the ledger, including this message)."""
        self._sent[index].append(msg)
        try:
            self._group.submit(index, msg)
        except WorkerCrash:
            self._recover_worker(index)

    def _collect_shard(self, index: int):
        """Collect one window result, restarting the worker on crash or
        heartbeat expiry until it answers (or the restart budget dies)."""
        while True:
            try:
                result = self._group.collect(
                    index, timeout=self._heartbeat_s
                )
            except WorkerCrash:
                self._recover_worker(index)
                continue
            self._restart_attempts[index] = 0
            self._sent[index].popleft()
            return result

    def _recover_worker(self, index: int) -> None:
        """Backoff-restart one shard worker and replay its ledger.

        Restores the latest checkpoint (when one exists), then resubmits
        every submitted-but-uncollected window message degraded to
        greedy.  Committed flows are never at risk — they live in the
        parent accountant; only in-flight window *solves* are redone.
        A crash during recovery itself returns early: the next collect
        raises again and retries with a doubled backoff.
        """
        self._restart_attempts[index] += 1
        if self._restart_attempts[index] > self._max_worker_restarts:
            raise RuntimeError(
                f"shard {index} failed {self._max_worker_restarts} "
                "consecutive restarts; giving up"
            )
        sleep(min(0.02 * 2 ** (self._restart_attempts[index] - 1), 1.0))
        self._group.restart(index)
        self._worker_restarts += 1
        self._resync_left[index] = self._resync
        try:
            blob = self._checkpoints[index]
            if blob is not None:
                self._group.submit(index, ("restore", blob))
                self._group.collect(index, timeout=self._heartbeat_s)
            for msg in self._sent[index]:
                self._group.submit(index, self._degrade_msg(msg))
        except WorkerCrash:
            return

    def _consume_worker_events(self, start: float) -> None:
        """Enact scheduled ``worker_crash`` events older than ``start``.

        Kill-then-recover in one step so the dispatch about to run
        submits to a live worker; the crash still exercises the full
        restart/restore/resubmit path.  (:meth:`inject_worker_crash`
        kills *without* recovering, leaving detection to the next
        collect's heartbeat — the chaos-test variant.)
        """
        events = self._worker_events
        self._kills_upto = start
        while events and events[0].time < start:
            event = events.pop(0)
            self._group.kill(event.shard)
            self._recover_worker(event.shard)

    def _maybe_checkpoint(self, k: int) -> None:
        """Opportunistic per-shard worker checkpoints.

        Only quiescent shards (no results in flight) snapshot — the
        result pipe is FIFO, so a snapshot request behind pending window
        results would stall the window pipeline to wait for them.
        """
        if self._ckpt_every is None:
            return
        for index in range(self._partition.num_shards):
            if k - self._last_ckpt[index] < self._ckpt_every:
                continue
            if self._group.pending(index) or not self._group.alive(index):
                continue
            try:
                self._group.submit(index, ("snapshot",))
                blob = self._group.collect(
                    index, timeout=self._heartbeat_s
                )
            except WorkerCrash:
                self._recover_worker(index)
                continue
            self._checkpoints[index] = blob
            self._last_ckpt[index] = k

    def inject_worker_crash(self, index: int) -> None:
        """Kill one shard worker mid-replay, with no recovery action.

        The next collect touching the shard sees the dead pipe (or
        heartbeat expiry), restarts it, and resubmits its uncollected
        windows — the zero-lost-flows guarantee the chaos tests pin.
        """
        self._check_shard(index)
        self._group.kill(index)

    # ------------------------------------------------------------------
    # Window collect (gather + commit).
    # ------------------------------------------------------------------
    def _collect_one(self) -> None:
        # Peek, don't pop: if a collect below dies hard (restart budget
        # exhausted) the entry stays in flight for error reporting.
        entry = self._inflight[0]
        loop = self._loop
        if not entry.arrivals:
            self._inflight.popleft()
            loop.settle(entry.index)
            return
        results = entry.results
        if results is None:
            results = {
                shard_idx: self._collect_shard(shard_idx)
                for shard_idx in entry.shard_ids
            }
            entry.results = results
        self._inflight.popleft()
        path_of: dict = {}
        window_solve = 0.0
        for shard_idx in entry.shard_ids:
            pairs, solve_s, degraded = results[shard_idx]
            stats = self._per_shard[shard_idx]
            stats["solve_s"] += solve_s
            if degraded and self._mode == "relax":
                stats["degraded_windows"] += 1
            if solve_s > window_solve:
                window_solve = solve_s
            for flow_id, path in pairs:
                path_of[flow_id] = path

        # Commit in arrival order regardless of which shard answered:
        # the exact float-accumulation order of the single-owner engine.
        committed = loop.commit(
            entry.index,
            entry.arrivals,
            self._schedules(entry, path_of),
            entry.down,
            self.name,
        )
        mu, alpha = self._power.mu, self._power.alpha
        misses = 0
        for fs, missed in committed:
            shard_idx = entry.assign.get(fs.flow.id)
            stats = self._per_shard[-1 if shard_idx is None else shard_idx]
            stats["flows"] += 1
            stats["energy"] += sum(
                mu * seg.rate**alpha * (seg.end - seg.start)
                for seg in fs.segments
            ) * (len(fs.path) - 1)
            if missed:
                stats["misses"] += 1
                misses += 1
        loop.settle(entry.index)
        if entry.shard_ids and self._mode == "relax":
            self._controller.observe(window_solve, not entry.relax)
        start, end = loop.bounds(entry.index)
        self.window_log.append(
            WindowStats(
                index=entry.index,
                start=start,
                end=end,
                arrivals=len(entry.arrivals),
                served=len(committed),
                misses=misses,
                cross_flows=len(entry.cross),
                degraded=not entry.relax,
                solve_s=window_solve,
            )
        )

    @staticmethod
    def _schedules(entry: _InFlight, path_of: dict):
        """A collected window's schedules, in arrival order.  A ``None``
        shard path (no surviving route past the dead links) and a cross
        flow the parent could not route leave the flow unserved."""
        for flow in entry.arrivals:
            shard_idx = entry.assign.get(flow.id)
            if shard_idx is None:
                fs = entry.cross.get(flow.id)
            elif flow.id not in path_of:
                raise ValidationError(
                    f"shard {shard_idx} returned no result for flow "
                    f"{flow.id!r} in window {entry.index}"
                )
            else:
                path = path_of[flow.id]
                fs = None if path is None else density_schedule(flow, path)
            if fs is not None:
                yield fs

    # ------------------------------------------------------------------
    # Settlement.
    # ------------------------------------------------------------------
    def finish(self) -> ReplayReport:
        """Dispatch the final window, drain every shard, build the report."""
        if self._finished:
            raise ValidationError("engine already finished")
        self._loop.finish()
        self._finished = True

        drift = 0.0
        if self._mode == "relax":
            drift = max(self._group.broadcast(("drift",)), default=0.0)
        labels = [
            f"shard{shard.index}[{'+'.join(shard.groups)}]"
            for shard in self._partition.shards
        ]
        shard_stats = tuple(
            ShardStats(shard=label, **stats)
            for label, stats in zip(labels + ["cross-shard"], self._per_shard)
        )
        return self._loop.report(
            policy=self.name,
            policy_fallbacks=0,
            max_weight_drift=float(drift),
            degraded_windows=self._degraded_windows,
            evacuated_flows=sum(s["evacuated"] for s in self._per_shard),
            worker_restarts=self._worker_restarts,
            shard_stats=shard_stats,
        )

    def close(self) -> None:
        """Stop the shard workers (idempotent, exception-safe).

        Safe to call repeatedly and from ``__exit__`` after a
        :meth:`finish` that raised mid-collect: the group reaps each
        fork worker exactly once and tolerates already-dead pipes, so no
        child process leaks whichever way the replay ended.
        """
        self._closed = True
        self._group.close()

    def __enter__(self) -> "ShardedReplayEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Snapshot / restore.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Freeze the mid-replay state into one picklable payload.

        Worker *results* for in-flight windows are drained into their
        entries (so worker state is quiescent and snapshotable) but NOT
        committed — the restored engine replays the identical
        dispatch/collect schedule, which is what keeps its lagged
        background views, and hence every report field, bit-identical to
        an uninterrupted run.
        """
        if self._finished or self._closed:
            raise ValidationError("cannot snapshot a finished engine")
        for entry in self._inflight:
            if entry.results is None and entry.shard_ids:
                # _collect_shard (not a bare collect) so the resubmission
                # ledger drains too — a snapshot holds results, never
                # uncollected sends.
                entry.results = {
                    shard_idx: self._collect_shard(shard_idx)
                    for shard_idx in entry.shard_ids
                }
        workers = self._group.broadcast(("snapshot",))
        return {
            "kind": SNAPSHOT_KIND,
            "version": SNAPSHOT_VERSION,
            "config": {
                "window": self._window,
                "num_shards": self._partition.num_shards,
                "mode": self._mode,
                "seed": self._seed,
                "fw_max_iterations": self._fw_iters,
                "fw_gap_tolerance": self._fw_gap,
                "rounding": self._rounding,
                "pipeline_depth": self._depth,
                "budget": self._budget,
                "keep_schedules": self._loop.kept is not None,
                "tol": self._tol,
                "heartbeat_s": self._heartbeat_s,
                "max_worker_restarts": self._max_worker_restarts,
                "checkpoint_every": self._ckpt_every,
                "resync_windows": self._resync,
                "failure_domains": self._failure_domains,
                "srlg_diverse": self._srlg_diverse,
            },
            "fabric": (self._topology.name, self._topology.num_edges),
            "loop": self._loop.snapshot_state(),
            "controller": self._controller.snapshot_state(),
            "inflight": list(self._inflight),
            "window_log": list(self.window_log),
            "workers": workers,
            "service": {
                "max_deadline": self._max_deadline,
                "degraded_windows": self._degraded_windows,
                "per_shard": [dict(s) for s in self._per_shard],
                "worker_events": list(self._worker_events),
                "kills_upto": self._kills_upto,
                "worker_restarts": self._worker_restarts,
                "restart_attempts": list(self._restart_attempts),
                "resync_left": list(self._resync_left),
                "checkpoints": list(self._checkpoints),
                "last_ckpt": list(self._last_ckpt),
                "dark_prev": sorted(self._dark_prev),
            },
        }

    @classmethod
    def restore_state(
        cls,
        topology: Topology,
        power: PowerModel,
        state: dict,
        *,
        partition: TopologyPartition | None = None,
    ) -> "ShardedReplayEngine":
        """Rebuild a mid-replay engine from :meth:`snapshot_state`.

        ``topology`` and ``power`` are re-supplied by the caller (the
        snapshot stores only their fingerprint); a custom partition used
        at snapshot time must be re-supplied too — the default
        re-derives the deterministic natural/greedy partition.
        """
        if not isinstance(state, dict) or state.get("kind") != SNAPSHOT_KIND:
            raise ValidationError("not a sharded replay snapshot")
        if state.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported snapshot version {state.get('version')!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        name, num_edges = state["fabric"]
        if topology.num_edges != num_edges:
            raise ValidationError(
                f"snapshot was taken on {name!r} ({num_edges} edges); got "
                f"{topology.name!r} ({topology.num_edges} edges)"
            )
        # The config holds exactly the constructor's keyword arguments.
        cfg = state["config"]
        # Resolve and check the partition before constructing: the
        # constructor forks one worker per shard.
        if partition is None:
            partition = partition_topology(topology, cfg["num_shards"])
        if partition.num_shards != cfg["num_shards"]:
            raise ValidationError(
                f"partition yields {partition.num_shards} shards; "
                f"snapshot had {cfg['num_shards']}"
            )
        engine = cls(topology, power, partition=partition, **cfg)
        try:
            for index, blob in enumerate(state["workers"]):
                engine._group.submit(index, ("restore", blob))
            for index in range(len(state["workers"])):
                engine._group.collect(index)
            engine._loop.restore_state(state["loop"])
            engine._controller.restore_state(state["controller"])
            engine._inflight = deque(state["inflight"])
            engine.window_log = list(state["window_log"])
            sc = state["service"]
            engine._max_deadline = sc["max_deadline"]
            engine._degraded_windows = sc["degraded_windows"]
            engine._per_shard = [dict(s) for s in sc["per_shard"]]
            engine._worker_events = list(sc["worker_events"])
            engine._kills_upto = sc["kills_upto"]
            engine._worker_restarts = sc["worker_restarts"]
            engine._restart_attempts = list(sc["restart_attempts"])
            engine._resync_left = list(sc["resync_left"])
            engine._checkpoints = list(sc["checkpoints"])
            engine._last_ckpt = list(sc["last_ckpt"])
            engine._dark_prev = frozenset(sc["dark_prev"])
        except BaseException:
            # A refused restore must not leak the forked shard workers.
            engine.close()
            raise
        return engine

