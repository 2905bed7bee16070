"""The replay service: partitioned relaxation shards, pipelined windows.

The single-owner :class:`~repro.traces.replay.ReplayEngine` runs one
policy on one fabric in one process.  :class:`ReplayService` scales the
same replay semantics out and keeps them running: the fabric is split by
:func:`~repro.service.partition.partition_topology` into shards, each
shard is solved in a long-lived
:class:`~repro.experiments.parallel.WorkerGroup` process, and each window
of arrivals is scattered to the shards that can solve its flows locally.
Flows and fault events are admitted one at a time, per-window stats are
polled as windows settle, and the whole mid-replay state round-trips
through :meth:`~ReplayService.snapshot`/:meth:`~ReplayService.restore`.
Only two things ever cross a process boundary per window: the shard's
restriction of the background load going out (a
:class:`~repro.routing.background.BackgroundProfile`), and
``(flow id, path)`` pairs coming back — the DESIGN.md Section 11 shard
protocol.  A worker runs the replay policies themselves on its shard:
:class:`~repro.traces.policies.RelaxationRoundingPolicy`, or
:class:`~repro.traces.policies.GreedyDensityPolicy` for greedy windows.
A window's routes are a function of its message alone: the policy's
pipelines are only a cache, and the rounding draws from
``default_rng((seed, shard, k))``.

Division of labor per window ``k``:

* **Intra-shard flows** (both endpoints in one connected component of one
  shard) are relaxed and rounded *inside* that shard's worker, against
  the shard-local restriction of the lagged background profile; while
  local links are down the shard solves on its survivor subgraph, as
  the policy does on the whole fabric.
* **Cross-shard flows** are routed in the parent on the boundary-aware
  global view by :class:`~repro.traces.policies.OnlineDensityPolicy`
  (marginal envelope-cost routing; :class:`~repro.traces.policies.
  GreedyDensityPolicy` in greedy mode): cheap, load-aware, and
  deterministic.  They are the only traffic that can load a boundary
  link.
* **Everything else is the shared window loop.**  The service is the
  pipelined executor of :class:`~repro.traces.replay.WindowLoop`, the
  loop :class:`~repro.traces.replay.ReplayEngine` runs inline: ingest,
  window bounds, the commit step (here in arrival order), settlement,
  the trailing sweep and the report are the same code in both.  This
  module adds admission, partitioning, dispatch, the pipeline lag, crash
  recovery, dark-shard evacuation, the per-shard and per-window
  telemetry and the snapshot.

**Pipelining.**  ``pipeline_depth = d`` keeps up to ``d`` windows in
flight: window ``k`` is dispatched as soon as its arrivals are complete,
and the results of window ``k - d`` are collected (committed, settled)
just before.  The background visible to window ``k`` is therefore the
commitments of windows ``<= k - d`` — *structurally* lagged, a function
of the window index alone, never of worker timing.  That staleness is
the price of overlap (``d = 1`` recovers the single-owner engine's
current-background semantics) and is exactly what makes
:meth:`~ReplayService.snapshot`/:meth:`~ReplayService.restore` reproduce
an uninterrupted run bit for bit: a snapshot drains worker *results*
into the in-flight entries without committing them, so a restored
service replays the same dispatch/collect schedule with the same lagged
views.

**Snapshots.**  This module is the one that knows the snapshot format.
The payload is one pickled dict: fingerprints of the fabric, the power
model and the partition, plus the service itself, pickled.  Its window
loop, accountant, churn registry, in-flight windows and its poll and
trace cursors are plain Python and NumPy objects.  The fabric, the power
model, the partition and the worker group are left out by persistent
id; restore maps the first three to the caller's objects and forks
fresh workers last.

**Degradation** to greedy is decided per window by a
:class:`~repro.service.degrade.DegradeController` (the solve budget), and
every degraded window is recorded honestly on the report (see
:mod:`repro.service.degrade`).  Crash recovery degrades nothing: a
restarted worker re-solves its uncollected windows as they were sent.

Typical lifecycle::

    service = ReplayService(topology, power, window=4.0, num_shards=4)
    service.serve_trace("trace.jsonl", limit=5_000)
    for stats in service.poll():
        print(stats.describe())
    blob = service.snapshot()          # durable checkpoint (bytes)
    ...
    service = ReplayService.restore(topology, power, blob)
    service.resume_trace()             # picks up at the stored cursor
    report = service.drain()
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pickle
import tempfile
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Iterable

import numpy as np

from repro.errors import ValidationError
from repro.experiments.parallel import WorkerCrash, WorkerGroup
from repro.flows.flow import Flow
from repro.power.model import PowerModel
from repro.routing.mcflow import check_fw_settings
from repro.scheduling.schedule import density_schedule
from repro.service.degrade import DegradeController, SolveBudget
from repro.service.partition import TopologyPartition, partition_topology
from repro.sim.churn import WORKER_CRASH, FaultEvent, FaultSchedule
from repro.topology.base import Topology
from repro.traces.policies import (
    GreedyDensityPolicy,
    OnlineDensityPolicy,
    RelaxationRoundingPolicy,
    WindowContext,
    check_seed,
)
from repro.traces.replay import (
    ReplayReport,
    ShardStats,
    WindowAccountant,
    WindowLoop,
)
from repro.traces.store import TraceReader

__all__ = ["WindowStats", "ReplayService"]

SNAPSHOT_KIND = "repro-replay-service"
#: Any other version is refused: the payload is a pickle of this module's
#: classes as they stand.
SNAPSHOT_VERSION = 10
#: Consecutive failed recoveries of one shard before the run gives up
#: (a successful collect resets the count).
MAX_WORKER_RESTARTS = 3


@dataclass(frozen=True)
class WindowStats:
    """Per-window service telemetry (what :meth:`ReplayService.poll`
    returns)."""

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


def _no_pieces():
    raise ValidationError("a shard window ships no live pieces")


class _ShardSolver:
    """Worker-side handler: runs the replay policies on one shard.

    Built *inside* the forked worker by the :class:`WorkerGroup` factory,
    so only window messages and ``(flow id, path)`` results cross a pipe.
    A message becomes a :class:`WindowContext` over the shard (the
    shipped background restriction, the dead local links) for
    :class:`RelaxationRoundingPolicy`, or for :class:`GreedyDensityPolicy`
    in greedy mode and degraded windows; a flow left unserved ships a
    ``None`` path.  A result is a function of its message: relax window
    ``k`` is reseeded with ``(seed, shard, k)`` and reports its own
    ``w_bar`` drift, and the policy's pipelines, built on the first
    relaxed window, are caches.  A restarted worker therefore re-solves a
    resubmitted window to the same routes.
    """

    def __init__(
        self,
        shard,
        power: PowerModel,
        config: tuple[int, int, float, str],
    ) -> None:
        self._shard = shard
        self._power = power
        self._config = config
        self._relax: RelaxationRoundingPolicy | None = None
        self._greedy = GreedyDensityPolicy()

    def __call__(self, msg):
        k, start, end, flows, background, relax, down_local = msg
        t_start = perf_counter()
        ctx = WindowContext(
            self._shard.topology,
            self._power,
            start,
            end,
            background_fn=lambda: background,
            pieces_fn=_no_pieces,
            down_edge_ids=down_local,
        )
        drift = 0.0
        if relax:
            if self._relax is None:
                self._relax = RelaxationRoundingPolicy(*self._config)
            self._relax.reseed((self._config[0], self._shard.index, k))
            schedules = self._relax.schedule_window(flows, ctx)
            drift = self._relax.max_weight_drift
        else:
            schedules = self._greedy.schedule_window(flows, ctx)
        path_of = {fs.flow.id: fs.path for fs in schedules}
        pairs = [(flow.id, path_of.get(flow.id)) for flow in flows]
        return pairs, perf_counter() - t_start, drift


@dataclass
class _InFlight:
    """One dispatched-but-uncommitted window (plain data, picklable)."""

    index: int
    arrivals: list[Flow]
    assign: dict  # flow id -> shard index (cross-shard flows absent)
    shard_ids: tuple[int, ...]
    cross: dict = field(default_factory=dict)  # flow id -> FlowSchedule
    #: False when the window's shards solve greedily: greedy mode, or a
    #: window the solve budget degraded.
    relax: bool = True
    #: shard index -> (pairs, solve_s, w_bar drift); populated from the
    #: workers either at collect time or by a snapshot drain.
    results: dict | None = None
    #: Dispatch-time dead-link view — the survivor graph every route in
    #: this window was chosen against; collect attributes unserved flows
    #: with no path on it to failure (exactly once, never committed).
    down: frozenset = frozenset()


class ReplayService:
    """Streaming replay over partitioned relaxation shards.

    The incremental counterpart of :class:`~repro.traces.replay.
    ReplayEngine`: flows and fault events are admitted one at a time
    (:meth:`submit`) or as a stream (:meth:`submit_many`, or
    :meth:`serve_trace` straight from a trace file), windows dispatch to
    shard workers as soon as they close, :meth:`poll` returns the
    windows settled since the last poll, and :meth:`drain` settles
    everything into one :class:`~repro.traces.replay.ReplayReport` with
    a per-shard breakdown and stops the workers.  :meth:`run` is
    :meth:`submit_many` followed by :meth:`drain`.  After :meth:`drain`
    or :meth:`close` the service admits nothing.

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
    seed:
        Integer >= 0; window ``k`` of shard ``s`` rounds with
        ``default_rng((seed, s, k))``.
    pipeline_depth:
        Windows in flight, an integer >= 1; window ``k`` sees the
        background of windows ``<= k - pipeline_depth``.  ``1`` disables
        overlap and recovers the single-owner engine's background
        semantics.
    budget:
        Optional :class:`~repro.service.degrade.SolveBudget`; exhausted
        windows degrade to greedy and are counted on the report.
    faults:
        Optional :class:`~repro.sim.churn.FaultSchedule`.  Fabric events
        (link, whole-switch and SRLG outages alike) feed the same
        :class:`~repro.traces.repair.ChurnManager` the single-owner
        engine uses, which reroutes displaced flows greedily on the
        survivor fabric; ``worker_crash`` events kill the named shard
        worker at the next window dispatch, exercising crash recovery:
        the worker restarts and re-solves its uncollected windows as
        they were sent, so the report matches the uncrashed run (bar
        ``worker_restarts`` and solve timings).
    failure_domains:
        Optional :class:`~repro.sim.churn.FailureDomain` iterable seeding
        the churn manager's risk-group registry up front (otherwise
        groups are learned from observed domain events).
    srlg_diverse:
        Penalize repair routes sharing a risk group with a currently-down
        domain (see :data:`~repro.traces.repair.SRLG_PENALTY`).  With no
        domains down the replay is bit-identical either way.
    heartbeat_s:
        Bound on each worker collect, finite and > 0; a worker silent for
        this long is declared crashed, restarted and sent its uncollected
        windows again.  Set it above the slowest window solve, a fresh
        worker's included: a window that outlasts it after every restart
        exhausts :data:`MAX_WORKER_RESTARTS` and fails the run.  ``None``
        waits forever (crashes are still detected via pipe EOF).
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
        faults: FaultSchedule | None = None,
        failure_domains: Iterable | None = None,
        srlg_diverse: bool = True,
        heartbeat_s: float | None = None,
    ) -> None:
        if not window > 0:
            raise ValidationError(f"window must be > 0, got {window}")
        if mode not in ("relax", "greedy"):
            raise ValidationError(f"unknown mode {mode!r}")
        # Checked here, not by the first relaxed window's policy in a
        # shard worker, and in greedy mode too.
        check_seed(seed)
        if mode == "relax":
            # Checked here, not in the shard workers that build solvers.
            check_fw_settings(fw_max_iterations, fw_gap_tolerance)
        if rounding not in ("random", "deterministic"):
            raise ValidationError(f"unknown rounding mode {rounding!r}")
        # A NaN or infinite depth would collect no window before drain(),
        # and 1.5 would run as 2.
        if not (
            isinstance(pipeline_depth, (int, np.integer))
            and pipeline_depth >= 1
        ):
            raise ValidationError(
                f"pipeline_depth must be an integer >= 1, got "
                f"{pipeline_depth!r}"
            )
        partition = _resolve_partition(topology, partition, num_shards)
        if heartbeat_s is not None and not 0.0 < heartbeat_s < float("inf"):
            # NaN fails the comparison too; zero or a negative bound would
            # declare a live worker dead whenever its result is not
            # already in the pipe.
            raise ValidationError(
                f"heartbeat_s must be finite and > 0, got {heartbeat_s!r}"
            )
        self._partition = partition
        self._mode = mode
        self._depth = pipeline_depth
        #: RelaxationRoundingPolicy's arguments, for the shard workers.
        self._solver_config = (
            seed, fw_max_iterations, fw_gap_tolerance, rounding
        )
        # Cross-shard flows, routed in the parent on the global view.
        self._cross_policy = (
            OnlineDensityPolicy() if mode == "relax" else GreedyDensityPolicy()
        )
        self._controller = DegradeController(budget)
        self._inflight: deque[_InFlight] = deque()
        self._window_log: list[WindowStats] = []
        self._poll_cursor = 0
        #: The trace :meth:`serve_trace` reads, and the byte offset of its
        #: next unread record.
        self._trace_path: str | None = None
        self._trace_cursor: int | None = None
        self._loop = WindowLoop(
            topology,
            power,
            window,
            WindowAccountant(topology, power),
            self,
            keep_schedules=keep_schedules,
            faults=faults,
            domains=(
                tuple(failure_domains)
                if failure_domains is not None
                else None
            ),
            srlg_diverse=srlg_diverse,
        )
        #: Pipeline skip state: the largest dispatched deadline.
        self._max_deadline = -np.inf
        self._closed = False

        # Crash tolerance.
        self._heartbeat_s = heartbeat_s
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
        self._restart_attempts = [0] * n
        self._worker_restarts = 0
        self._rev_edge_maps = [
            {int(pid): li for li, pid in enumerate(shard.edge_map)}
            for shard in shards
        ]

        # Service-side counters (the loop keeps the report's).
        self._degraded_windows = 0
        #: Worst ``w_bar`` drift any collected shard result reported.
        self._max_drift = 0.0
        #: One ShardStats row of counters per shard, then one for the
        #: cross-shard flows the parent routes.
        self._per_shard = [
            {"flows": 0, "energy": 0.0, "misses": 0, "degraded_windows": 0,
             "solve_s": 0.0, "evacuated": 0}
            for _ in range(n + 1)
        ]

        # Fork last: every check above runs before a worker exists, so a
        # rejected configuration cannot leak child processes.
        self._fork()

    def _fork(self) -> None:
        """Start one shard worker per shard: the last step of both the
        constructor and :meth:`restore`."""
        shards, power = self._partition.shards, self._loop.power
        config = self._solver_config
        self._group = WorkerGroup(
            lambda i: _ShardSolver(shards[i], power, config), len(shards)
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
    def flows_submitted(self) -> int:
        return self._loop.flows_seen

    # ------------------------------------------------------------------
    # Admission.
    # ------------------------------------------------------------------
    def submit(self, item: Flow | FaultEvent) -> None:
        """Admit one flow or fault event: the one admission step.

        Flows and events form one stream, nondecreasing in time.  Fabric
        events go to the window loop's churn manager; ``worker_crash``
        events join the dispatch-time kill schedule, unless it has
        already been enacted past them.
        """
        self._check_open()
        if not isinstance(item, FaultEvent):
            self._loop.feed(item)
        elif item.kind != WORKER_CRASH:
            self._loop.feed_fault(item)
        else:
            self._check_shard(item.shard)
            if item.time < self._kills_upto:
                raise ValidationError(
                    f"worker_crash at t={item.time} arrived after the "
                    f"kill schedule was enacted through {self._kills_upto}"
                )
            insort(self._worker_events, item, key=lambda e: e.time)

    def submit_fault(self, event: FaultEvent) -> None:
        """Admit one fault event inline (:meth:`submit` takes it too)."""
        self.submit(event)

    def submit_many(self, items: Iterable[Flow | FaultEvent]) -> int:
        """Admit a stream of flows and fault events, such as
        ``TraceReader(path, include_faults=True)``; returns how many
        flows it admitted."""
        flows = 0
        for item in items:
            self.submit(item)
            flows += not isinstance(item, FaultEvent)
        return flows

    def run(self, trace: Iterable[Flow | FaultEvent]) -> ReplayReport:
        """Replay a whole stream: :meth:`submit_many`, then :meth:`drain`."""
        self.submit_many(trace)
        return self.drain()

    def serve_trace(self, path: str, limit: int | None = None) -> int:
        """Stream flows and inline fault events from a JSONL trace file,
        tracking a resume cursor.

        Admits up to ``limit`` flows (all of them when None; fault
        records do not count) and records the byte cursor of the next
        unread record after every admission, so a :meth:`snapshot` taken
        at any point carries an exact resume position.  A second call on
        the same path continues from that cursor.  Returns the number of
        flows admitted by this call.
        """
        if limit is not None and not (
            isinstance(limit, (int, np.integer)) and limit >= 0
        ):
            raise ValidationError(
                f"limit must be None or an integer >= 0, got {limit!r}"
            )
        self._check_open()
        flows = 0
        if limit == 0:
            return flows
        with TraceReader(path, include_faults=True) as reader:
            if self._trace_path == path and self._trace_cursor is not None:
                reader.seek(self._trace_cursor)
            for item in reader:
                self.submit(item)
                flows += not isinstance(item, FaultEvent)
                self._trace_path = path
                self._trace_cursor = reader.tell()
                if flows == limit:
                    break
        return flows

    def resume_trace(self, limit: int | None = None) -> int:
        """Continue :meth:`serve_trace` from the stored cursor."""
        if self._trace_path is None:
            raise ValidationError(
                "no trace cursor to resume; call serve_trace first"
            )
        return self.serve_trace(self._trace_path, limit=limit)

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("the service is drained or closed")

    def _check_shard(self, index: int) -> None:
        if not 0 <= index < self._partition.num_shards:
            raise ValidationError(
                f"no shard {index}; partition has "
                f"{self._partition.num_shards}"
            )

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
        A pure function of the admitted prefix — the snapshot/restore pins
        rely on that.
        """
        if self._max_deadline > self._loop.bounds(after)[0]:
            return after
        return upto

    def settle_in_flight(self) -> None:
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

        # Dark shards: a shard whose switch node is down cannot solve
        # anything meaningful locally — it gets no submits, and its flows
        # are evacuated to the parent's survivor-aware cross-shard router.
        dark = self._dark_shards()
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
        # The dead-link view a window dispatches against changes only at
        # collect boundaries (settle applies events before finalize), so
        # it is structurally lagged like the background — a function of
        # the dispatch/collect schedule, never of worker timing.
        down = loop.down_view()
        # One lazily built context: the shard slices read its background
        # profile (built at most once) and the cross-shard policy its
        # live pieces, both from the same accountant state.
        ctx = loop.context(k, down)
        shard_ids = tuple(sorted(per_shard))
        for shard_idx in shard_ids:
            local_bg = None
            if relax:
                edge_map = self._partition.shards[shard_idx].edge_map
                local_bg = ctx.background.restrict(edge_map)
            rev = self._rev_edge_maps[shard_idx]
            down_local = frozenset(
                rev[pid] for pid in down if pid in rev
            )
            flows = per_shard[shard_idx]
            self._submit_shard(
                shard_idx,
                (k, ctx.start, ctx.end, flows, local_bg, relax, down_local),
            )
        # Route cross-shard flows in the parent while the shard solves
        # run; with the async submit above this is the window's overlap.
        cross: dict = {}
        if cross_flows:
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
    # Crash tolerance: heartbeat collects and backoff restarts.
    # ------------------------------------------------------------------
    def _submit_shard(self, index: int, msg) -> None:
        """Submit one window message; a dead pipe triggers recovery (the
        group records the message first, so the restart sends it)."""
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
            return result

    def _recover_worker(self, index: int) -> None:
        """Backoff-restart one shard worker.

        The group sends the fresh worker every window message the dead
        one left unanswered, as it was sent.  A result is a function of
        its message, so the fresh worker answers exactly what the dead
        one would have.  Committed flows are never at risk — they live in
        the parent accountant; only in-flight window *solves* are redone.
        A crash during the restart's sends surfaces at the next collect,
        which retries with a doubled backoff.
        """
        self._restart_attempts[index] += 1
        if self._restart_attempts[index] > MAX_WORKER_RESTARTS:
            raise RuntimeError(
                f"shard {index} failed {MAX_WORKER_RESTARTS} "
                "consecutive restarts; giving up"
            )
        sleep(min(0.02 * 2 ** (self._restart_attempts[index] - 1), 1.0))
        self._group.restart(index)
        self._worker_restarts += 1

    def _consume_worker_events(self, start: float) -> None:
        """Enact scheduled ``worker_crash`` events older than ``start``.

        Kill-then-recover in one step so the dispatch about to run
        submits to a live worker; the crash still exercises the full
        restart/resend path.  (:meth:`inject_worker_crash`
        kills *without* recovering, leaving detection to the next
        collect's heartbeat — the chaos-test variant.)
        """
        events = self._worker_events
        self._kills_upto = start
        while events and events[0].time < start:
            event = events.pop(0)
            self._group.kill(event.shard)
            self._recover_worker(event.shard)

    def inject_worker_crash(self, index: int) -> None:
        """Kill one shard worker mid-replay, with no recovery action.

        The next collect touching the shard sees the dead pipe (or
        heartbeat expiry), restarts it, and the group resends its
        uncollected windows — the zero-lost-flows guarantee the chaos
        tests pin.
        """
        self._check_open()
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
        window_degraded = self._mode == "relax" and not entry.relax
        for shard_idx in entry.shard_ids:
            pairs, solve_s, drift = results[shard_idx]
            stats = self._per_shard[shard_idx]
            stats["solve_s"] += solve_s
            if window_degraded:
                stats["degraded_windows"] += 1
            if solve_s > window_solve:
                window_solve = solve_s
            if drift > self._max_drift:
                self._max_drift = drift
            for flow_id, path in pairs:
                path_of[flow_id] = path
        if window_degraded:
            self._degraded_windows += 1

        # Commit in arrival order regardless of which shard answered:
        # the exact float-accumulation order of the single-owner engine.
        committed = loop.commit(
            entry.index,
            entry.arrivals,
            self._schedules(entry, path_of),
            entry.down,
            self.name,
        )
        mu, alpha = loop.power.mu, loop.power.alpha
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
        self._window_log.append(
            WindowStats(
                index=entry.index,
                start=start,
                end=end,
                arrivals=len(entry.arrivals),
                served=len(committed),
                misses=misses,
                cross_flows=len(entry.cross),
                degraded=window_degraded,
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
    # Telemetry and settlement.
    # ------------------------------------------------------------------
    def poll(self) -> list[WindowStats]:
        """Per-window stats settled since the last poll (oldest first)."""
        fresh = self._window_log[self._poll_cursor :]
        self._poll_cursor = len(self._window_log)
        return fresh

    def drain(self) -> ReplayReport:
        """Dispatch the final window, settle every window in flight, stop
        the shard workers and build the report."""
        self._check_open()
        try:
            self._loop.finish()
        finally:
            self.close()
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
            max_weight_drift=float(self._max_drift),
            degraded_windows=self._degraded_windows,
            evacuated_flows=sum(s["evacuated"] for s in self._per_shard),
            worker_restarts=self._worker_restarts,
            shard_stats=shard_stats,
        )

    def close(self) -> None:
        """Stop the shard workers (idempotent, exception-safe).

        Safe to call repeatedly and from ``__exit__`` after a
        :meth:`drain` that raised mid-collect: the group reaps each fork
        worker exactly once and tolerates already-dead pipes, so no
        child process leaks whichever way the replay ended.
        """
        self._closed = True
        self._group.close()

    def __enter__(self) -> "ReplayService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Snapshot / restore.
    # ------------------------------------------------------------------
    def snapshot(self, path: str | None = None) -> bytes | str:
        """Checkpoint the full service state.

        Returns the payload as bytes, or writes it to ``path`` and
        returns the path.  Worker *results* for in-flight windows are
        drained into their entries but NOT committed — the restored
        service replays the identical dispatch/collect schedule, which is
        what keeps its lagged background views, and hence every report
        field, bit-identical to an uninterrupted run.  The payload holds
        fingerprints of the fabric, the power model and the partition,
        and this service, pickled with its fabric, power model, partition
        and worker group left out by persistent id; the poll and trace
        cursors ride along as its attributes.  No worker state is saved:
        it is only a cache, and restored workers start fresh.

        The file write is atomic: the payload goes to a temp file in
        ``path``'s directory, is flushed and fsynced, and then replaces
        ``path`` — so a write that fails (a full disk) leaves the
        previous checkpoint intact and no temp file behind.
        """
        self._check_open()
        for entry in self._inflight:
            if entry.results is None and entry.shard_ids:
                entry.results = {
                    shard_idx: self._collect_shard(shard_idx)
                    for shard_idx in entry.shard_ids
                }
        topology = self._loop.topology
        left_out = {
            id(topology): "topology",
            id(self._loop.power): "power",
            id(self._partition): "partition",
            id(self._group): "workers",
        }
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: left_out.get(id(obj))
        pickler.dump(self)
        blob = pickle.dumps({
            "kind": SNAPSHOT_KIND,
            "version": SNAPSHOT_VERSION,
            "fabric": (
                topology.name, topology.num_edges, _digest(topology.edges)
            ),
            "power": self._loop.power,
            "num_shards": self._partition.num_shards,
            "partition": _partition_digest(self._partition),
            "service": buffer.getvalue(),
        })
        if path is None:
            return blob
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp"
        )
        try:
            with open(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    @classmethod
    def restore(
        cls,
        topology: Topology,
        power: PowerModel,
        source: bytes | str,
        *,
        partition: TopologyPartition | None = None,
    ) -> "ReplayService":
        """Rebuild a mid-replay service from :meth:`snapshot` bytes or a
        file path.

        ``topology`` and ``power`` are re-supplied by the caller and must
        be the snapshot's (the snapshot stores fingerprints of the fabric
        and the partition, and the power model's parameters); a custom
        partition used at snapshot time must be re-supplied too — the
        default re-derives the deterministic natural/greedy partition.
        The workers fork last, so a refused restore leaks none.  The
        payload is unpickled: restore only snapshots this program wrote.
        """
        if not isinstance(source, (bytes, bytearray)):
            with open(source, "rb") as handle:
                source = handle.read()
        state = pickle.loads(source)
        if not isinstance(state, dict) or state.get("kind") != SNAPSHOT_KIND:
            raise ValidationError("not a replay service snapshot")
        if state.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported snapshot version {state.get('version')!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        name, num_edges, links = state["fabric"]
        if _digest(topology.edges) != links:
            raise ValidationError(
                f"snapshot was taken on {name!r} ({num_edges} edges); got "
                f"{topology.name!r} ({topology.num_edges} edges)"
            )
        if power != state["power"]:
            raise ValidationError(
                f"snapshot was taken under {state['power']!r}; got {power!r}"
            )
        num_shards = state["num_shards"]
        partition = _resolve_partition(topology, partition, num_shards)
        if partition.num_shards != num_shards:
            raise ValidationError(
                f"partition yields {partition.num_shards} shards; "
                f"snapshot had {num_shards}"
            )
        if _partition_digest(partition) != state["partition"]:
            raise ValidationError("partition differs from the snapshot's")
        service = _ServiceUnpickler(
            state["service"],
            {
                "topology": topology,
                "power": power,
                "partition": partition,
                "workers": None,
            },
        ).load()
        service._fork()
        return service


def _digest(value) -> str:
    """SHA-256 of ``repr(value)``: a snapshot's fingerprint of the
    fabric's links and the partition's shards, in the order the edge ids
    and shard indices of the pickled service index them."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _partition_digest(partition: TopologyPartition) -> str:
    return _digest((
        sorted(partition.node_component.items()),
        [shard.edge_map.tolist() for shard in partition.shards],
    ))


def _resolve_partition(
    topology: Topology,
    partition: TopologyPartition | None,
    num_shards: int | None,
) -> TopologyPartition:
    """``partition``, checked against ``topology``, or the default
    partition of ``topology`` into ``num_shards``."""
    if partition is None:
        return partition_topology(topology, num_shards)
    if partition.topology is not topology:
        raise ValidationError("partition was built for a different topology")
    return partition


class _ServiceUnpickler(pickle.Unpickler):
    """Reads the pickled service inside a :meth:`ReplayService.snapshot`
    payload, resolving each left-out object's persistent id to the
    caller's."""

    def __init__(self, blob: bytes, left_out: dict) -> None:
        super().__init__(io.BytesIO(blob))
        self._left_out = left_out

    def persistent_load(self, pid):
        return self._left_out[pid]
