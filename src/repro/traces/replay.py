"""Sliding-horizon replay: stream a trace through a policy, measure reality.

The engine windows an arrival stream into fixed-length epochs.  Each epoch
is handed to a pluggable :class:`~repro.traces.policies.ReplayPolicy`
together with the *background* load committed by earlier epochs; the
policy's decisions are irrevocable and their reservations are carried
across window boundaries (a flow released late in window ``k`` keeps
transmitting through windows ``k+1, k+2, ...``).

**One loop, two executors.**  The window loop exists once, as
:class:`WindowLoop`: ingest (window origin, release-order and duplicate-id
checks, fault events), window bounds, admission counters, the commit
step, settlement, the trailing sweep and the :class:`ReplayReport`.
:class:`ReplayEngine` executes it inline — policy, commit and settle as
each window closes — and the sharded service
(:mod:`repro.service.sharded`) executes it through pipelined shard
workers, so a fix or a check in the loop holds for both engines.

Accounting is exact and bounded-memory, and lives in
:class:`WindowAccountant`; the loop commits both engines' schedules
through it.  Because a flow can only be scheduled in the window containing
its release, no segment ever starts before its scheduling window — so
once window ``k`` is scheduled, the link rates on ``[start_k, end_k)``
are final.  Energy is integrated by a single global event sweep in the
:mod:`repro.sim.fluid` tradition: each committed segment contributes
exactly two events (rate up at its start, down at its end) to one
time-ordered heap, and finalizing window ``k`` drains every event up to
``end_k``, charging each link ``mu * x^alpha * dt`` between its own
consecutive events.  (An earlier revision re-clipped and re-sorted every
live segment in every window it spanned — O(resident) extra work per
window that the heap removes.)  Finalization then garbage-collects every
segment that ended inside the window.  Resident state is one window of
arrivals plus the still-transmitting segments — O(active), never
O(trace) — which is what lets a 100k-flow trace replay in a few seconds
of constant memory.  The integration-test suite pins the summed window
energies against :meth:`repro.scheduling.Schedule.energy` and the
per-flow deadline verdicts against :func:`repro.sim.fluid.simulate_fluid`
on materialized traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable

import numpy as np

from repro.errors import ValidationError
from repro.flows.flow import Flow
from repro.power.model import PowerModel
from repro.routing.background import BackgroundProfile
from repro.scheduling.schedule import FlowSchedule
from repro.sim.churn import FaultEvent, FaultSchedule
from repro.topology.base import Edge, Topology, path_edges
from repro.traces.policies import ReplayPolicy, WindowContext
from repro.traces.repair import ChurnManager

__all__ = [
    "ReplayReport",
    "ReplayEngine",
    "ShardStats",
    "WindowAccountant",
    "flow_verdict",
]


@dataclass(frozen=True)
class ShardStats:
    """Per-shard slice of a sharded replay (see DESIGN.md Section 11).

    ``energy`` is the *standalone* dynamic energy of the shard's own
    commitments (each flow charged as if alone on its links) — an
    attribution, not a partition of the report's exact stacked total,
    which is superadditive across shards.
    """

    shard: str
    flows: int
    energy: float
    misses: int
    degraded_windows: int
    solve_s: float
    #: Flows assigned here but routed by the parent because the shard's
    #: switch was down at dispatch (dark-shard evacuation).
    evacuated: int = 0

    def describe(self) -> str:
        evac = f", {self.evacuated} evacuated" if self.evacuated else ""
        return (
            f"{self.shard}: {self.flows} flows, "
            f"standalone energy {self.energy:.6g}, {self.misses} misses, "
            f"{self.degraded_windows} degraded windows, "
            f"solve {self.solve_s:.3g}s{evac}"
        )


@dataclass
class ReplayReport:
    """Everything the sliding-horizon replay observed."""

    policy: str
    window: float
    windows: int
    horizon: tuple[float, float]
    flows_seen: int
    flows_served: int
    deadline_misses: int
    unserved: int
    volume_offered: float
    volume_delivered: float
    idle_energy: float
    dynamic_energy: float
    active_links: int
    peak_link_rate: float
    capacity_violations: int
    policy_fallbacks: int
    max_resident_segments: int
    max_window_arrivals: int
    #: Worst pre-normalization deviation of any flow's aggregated rounding
    #: distribution from 1 (relaxation policies only; 0.0 otherwise).
    max_weight_drift: float = 0.0
    #: Windows whose relaxation was skipped for the greedy fallback
    #: because the solve budget was exhausted (sharded service only).
    degraded_windows: int = 0
    #: Disruption accounting (mid-replay fault injection; see
    #: :mod:`repro.traces.repair`).  All zero on fault-free runs.
    link_failures: int = 0
    link_recoveries: int = 0
    #: Correlated failure domains (whole-switch / SRLG outages) applied
    #: and lifted — each expands to an atomic multi-link outage on top
    #: of the per-link counters above.
    domain_failures: int = 0
    domain_recoveries: int = 0
    #: Committed flows re-routed onto the survivor fabric after a
    #: link-down truncated their reservation.
    flows_rerouted: int = 0
    #: Standalone energy of repair commitments minus the truncated tails
    #: they replace — what the churn cost in extra dynamic energy.
    repair_energy_delta: float = 0.0
    #: Worst failure-to-recommit latency over the run's link-down events
    #: that affected committed flows (0.0 when none did).
    time_to_recover: float = 0.0
    #: Sum of every repair's failure-to-recommit gap — a flow disrupted
    #: twice (a repair landing on a link a correlated follow-on failure
    #: then kills) contributes twice, which is what makes this the
    #: honest recovery metric for SRLG-diverse vs SRLG-blind repair.
    total_recovery_time: float = 0.0
    #: Deadline misses that exist only because the fabric failed: a
    #: committed flow doomed by a link-down (no survivor path, or no
    #: time left), or an arrival no policy could route because the
    #: survivor fabric was partitioned — each attributed exactly once.
    misses_attributed_to_failure: int = 0
    #: Always 0: repairs are never triaged.  Kept only because the
    #: end-to-end benchmark (``benchmarks/e2e``) reads it.
    repairs_triaged: int = 0
    #: Shard workers respawned after a crash (sharded service only).
    worker_restarts: int = 0
    #: Flows admitted to a dark (evacuated) shard and re-routed by the
    #: parent on the global survivor view (sharded service only).
    evacuated_flows: int = 0
    #: Per-shard breakdown (sharded service only; None for ReplayEngine).
    shard_stats: tuple[ShardStats, ...] | None = None
    schedules: list[FlowSchedule] | None = field(default=None, repr=False)

    @property
    def total_energy(self) -> float:
        return self.idle_energy + self.dynamic_energy

    @property
    def miss_rate(self) -> float:
        """Fraction of flows that missed (late, short, or never served)."""
        if self.flows_seen == 0:
            return 0.0
        return (self.deadline_misses + self.unserved) / self.flows_seen

    @property
    def horizon_length(self) -> float:
        return self.horizon[1] - self.horizon[0]

    @property
    def goodput(self) -> float:
        """Delivered volume per unit time over the replay horizon."""
        if self.horizon_length <= 0:
            return 0.0
        return self.volume_delivered / self.horizon_length

    def summary(self) -> str:
        text = (
            f"{self.policy}: {self.flows_served}/{self.flows_seen} flows over "
            f"{self.windows} windows, miss rate {self.miss_rate:.4f}, "
            f"energy {self.total_energy:.6g} "
            f"(idle {self.idle_energy:.6g} + dynamic {self.dynamic_energy:.6g}), "
            f"peak link rate {self.peak_link_rate:.4g}"
        )
        if self.max_weight_drift > 0.0:
            text += f", max w_bar drift {self.max_weight_drift:.3g}"
        if self.degraded_windows > 0:
            text += (
                f", {self.degraded_windows} window solves degraded to greedy"
            )
        if self.link_failures > 0 or self.worker_restarts > 0:
            text += (
                f"\n  churn: {self.link_failures} link failures "
                f"({self.link_recoveries} recovered), "
                f"{self.flows_rerouted} flows rerouted, "
                f"{self.misses_attributed_to_failure} misses attributed "
                f"to failure, repair energy {self.repair_energy_delta:+.6g}, "
                f"time-to-recover {self.time_to_recover:.4g}, "
                f"{self.worker_restarts} worker restarts"
            )
        if self.domain_failures > 0:
            text += (
                f"\n  domains: {self.domain_failures} correlated outages "
                f"({self.domain_recoveries} recovered), total recovery "
                f"{self.total_recovery_time:.4g}, "
                f"{self.evacuated_flows} flows evacuated"
            )
        if self.shard_stats is not None:
            for stats in self.shard_stats:
                text += f"\n  {stats.describe()}"
        return text


def flow_verdict(
    fs: FlowSchedule, flow: Flow, tol: float
) -> tuple[bool, float, bool]:
    """Judge one committed schedule: ``(in_span, delivered, missed)``.

    ``missed`` is True when the flow finished late or short by more than
    ``tol``; :meth:`WindowLoop.commit` judges every commitment of both
    engines with it.
    """
    segments = fs.segments
    if len(segments) == 1:
        # Fast path for the ubiquitous single-segment density profile;
        # semantics identical to the generic branch.
        seg = segments[0]
        in_span = (
            seg.start >= flow.release - tol
            and seg.end <= flow.deadline + tol
        )
        delivered = seg.rate * (seg.end - seg.start)
        completion = seg.end
    else:
        in_span = fs.within_span(tol)
        delivered = fs.transmitted
        completion = fs.completion_time()
    late = completion > flow.deadline + tol * max(1.0, abs(flow.deadline))
    short = delivered < flow.size * (1.0 - tol)
    return in_span, delivered, late or short


class WindowAccountant:
    """Exact bounded-memory accounting of committed reservations.

    Owns everything downstream of a policy's decision: the live-piece
    ledger, the global two-event-per-segment energy heap, peak rate /
    capacity tracking, and the per-window background views.  The
    single-owner :class:`ReplayEngine` and the sharded service engine
    both commit through this class, which is what keeps their energy
    accounting bit-identical, and its state is plain data so a service
    can :meth:`snapshot_state` mid-replay and restore an equivalent
    accountant later.

    Live pieces are stored array-backed: four parallel columns
    ``(start, end, rate, edge id)`` in commit order, materialized into
    numpy arrays lazily and invalidated on mutation.
    :meth:`background_profile` exposes them as the
    :class:`~repro.routing.background.BackgroundProfile` every policy
    schedules against.  :meth:`background` (the mean vector over one
    span, which greedy fault repair routes on) is a single vectorized
    overlap + :func:`numpy.bincount` pass over those columns, pinned
    bit-identical to :meth:`background_reference` — the PR-2 per-edge
    Python loop, retained as the oracle — because both accumulate each
    edge's ``rate * overlap`` terms in the same (commit) order.
    """

    def __init__(
        self, topology: Topology, power: PowerModel, tol: float = 1e-6
    ) -> None:
        self.topology = topology
        self.power = power
        self.tol = tol
        # Array-backed live-piece storage (parallel columns, commit order).
        self._piece_start: list[float] = []
        self._piece_end: list[float] = []
        self._piece_rate: list[float] = []
        self._piece_eid: list[int] = []
        self._piece_arrays: (
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        self.active_links: set[Edge] = set()
        # Global energy sweep state: one (time, edge_id, rate_delta) heap,
        # plus each link's current stacked rate and last event time.
        self.events: list[tuple[float, int, float]] = []
        self.cur_rate = [0.0] * topology.num_edges
        self.last_t = [0.0] * topology.num_edges
        self.dynamic_energy = 0.0
        self.peak_rate = 0.0
        self.capacity_violations = 0
        self.max_resident = 0
        self.last_segment_end = -np.inf
        self._edge_id = topology.edge_id
        self._mu, self._alpha = power.mu, power.alpha
        self._quadratic = power.alpha == 2.0
        self._cap_limit = power.capacity * (1.0 + tol)
        # Route memo: node path -> ((edge, edge_id), ...).  Distinct paths
        # are few; recomputing canonical edges per flow is not.
        self._route_edges: dict[
            tuple[str, ...], tuple[tuple[Edge, int], ...]
        ] = {}

    # ------------------------------------------------------------------
    # Commitment.
    # ------------------------------------------------------------------
    def route_of(self, fs: FlowSchedule) -> tuple[tuple[Edge, int], ...]:
        return self.route_edges(fs.path)

    def route_edges(
        self, path: tuple[str, ...]
    ) -> tuple[tuple[Edge, int], ...]:
        edges = self._route_edges.get(path)
        if edges is None:
            edges = tuple((e, self._edge_id(e)) for e in path_edges(path))
            self._route_edges[path] = edges
        return edges

    def commit(self, fs: FlowSchedule) -> None:
        """Register one irrevocable schedule: pieces, events, activity."""
        p_start, p_end = self._piece_start, self._piece_end
        p_rate, p_eid = self._piece_rate, self._piece_eid
        for edge, eid in self.route_of(fs):
            self.active_links.add(edge)
            for seg in fs.segments:
                p_start.append(seg.start)
                p_end.append(seg.end)
                p_rate.append(seg.rate)
                p_eid.append(eid)
                heappush(self.events, (seg.start, eid, seg.rate))
                heappush(self.events, (seg.end, eid, -seg.rate))
                if seg.end > self.last_segment_end:
                    self.last_segment_end = seg.end
        self._piece_arrays = None

    def _arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The live pieces as ``(starts, ends, rates, edge ids)`` arrays."""
        arrays = self._piece_arrays
        if arrays is None:
            arrays = (
                np.asarray(self._piece_start, dtype=float),
                np.asarray(self._piece_end, dtype=float),
                np.asarray(self._piece_rate, dtype=float),
                np.asarray(self._piece_eid, dtype=np.int64),
            )
            self._piece_arrays = arrays
        return arrays

    # ------------------------------------------------------------------
    # Energy sweep and garbage collection.
    # ------------------------------------------------------------------
    def sweep(self, upto: float) -> None:
        """Drain the event heap through ``upto``, charging each link
        ``mu * rate^alpha * dt`` between its own consecutive events."""
        events, cur_rate, last_t = self.events, self.cur_rate, self.last_t
        mu, alpha, quadratic = self._mu, self._alpha, self._quadratic
        cap_limit = self._cap_limit
        dynamic_energy = self.dynamic_energy
        peak_rate = self.peak_rate
        while events and events[0][0] <= upto:
            t, eid, delta = heappop(events)
            rate = cur_rate[eid]
            if rate > 0.0:
                dt = t - last_t[eid]
                if dt > 0.0:
                    if quadratic:  # rate*rate skips the pow kernel
                        dynamic_energy += mu * rate * rate * dt
                    else:
                        dynamic_energy += mu * rate**alpha * dt
                    if rate > peak_rate:
                        peak_rate = rate
                    if rate > cap_limit:
                        self.capacity_violations += 1
            cur_rate[eid] = rate + delta
            last_t[eid] = t
        self.dynamic_energy = dynamic_energy
        self.peak_rate = peak_rate

    def finalize(self, end: float) -> None:
        """Close a window ending at ``end``: sweep energy, drop dead pieces."""
        n = len(self._piece_start)
        if n > self.max_resident:
            self.max_resident = n
        self.sweep(end)
        if n:
            starts, ends, rates, eids = self._arrays()
            keep = ends > end
            if not keep.all():
                self._piece_start = starts[keep].tolist()
                self._piece_end = ends[keep].tolist()
                self._piece_rate = rates[keep].tolist()
                self._piece_eid = eids[keep].tolist()
                self._piece_arrays = None

    def drain(self) -> None:
        """Charge any boundary-exact trailing events (end of replay)."""
        self.sweep(np.inf)

    # ------------------------------------------------------------------
    # Committed-flow truncation (fault repair; see repro.traces.repair).
    # ------------------------------------------------------------------
    def truncate_commit(
        self,
        path: tuple[str, ...],
        segments: Iterable,
        cut: float,
    ) -> tuple[float, float]:
        """Void one committed reservation from ``cut`` onward.

        For every ``(edge, segment)`` piece of the ``(path, segments)``
        commitment whose end lies beyond ``cut``, the live piece is cut
        back to ``cut`` (dropped entirely when it had not started yet)
        and a compensating event pair is pushed so the energy sweep sees
        the rate drop at ``cut`` instead of the original end.  ``cut``
        must lie beyond the last finalized boundary — the engines only
        truncate inside the window being settled, which guarantees the
        compensations land ahead of the sweep.

        Returns ``(removed_volume, removed_standalone_energy)``: the
        flow volume no longer delivered and the standalone dynamic
        energy (rate^alpha, per edge) of the voided tail — the honest
        inputs to repair accounting.
        """
        route = self.route_edges(path)
        p_start, p_end = self._piece_start, self._piece_end
        p_rate, p_eid = self._piece_rate, self._piece_eid
        mu, alpha = self._mu, self._alpha
        removed_volume = 0.0
        removed_energy = 0.0
        n_pieces = len(p_start)
        drop: list[int] = []
        for seg in segments:
            if seg.end <= cut:
                continue
            lost = seg.rate * (seg.end - max(cut, seg.start))
            removed_volume += lost
            removed_energy += (
                mu * seg.rate**alpha * (seg.end - max(cut, seg.start))
            ) * len(route)
            for _edge, eid in route:
                # Find this commitment's live piece for (edge, segment):
                # scan from the newest pieces (commits are recent).
                for i in range(n_pieces - 1, -1, -1):
                    if (
                        p_eid[i] == eid
                        and p_start[i] == seg.start
                        and p_end[i] == seg.end
                        and p_rate[i] == seg.rate
                    ):
                        heappush(
                            self.events, (max(cut, seg.start), eid, -seg.rate)
                        )
                        heappush(self.events, (seg.end, eid, seg.rate))
                        if cut > seg.start:
                            p_end[i] = cut
                        else:
                            drop.append(i)
                        break
                else:
                    raise ValidationError(
                        f"truncate_commit: no live piece matches segment "
                        f"[{seg.start}, {seg.end}) @ {seg.rate} on edge "
                        f"{_edge!r} (already finalized?)"
                    )
        for i in sorted(drop, reverse=True):
            del p_start[i], p_end[i], p_rate[i], p_eid[i]
        if removed_volume > 0.0:
            self._piece_arrays = None
        return removed_volume, removed_energy

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    def background(self, start: float, end: float) -> np.ndarray:
        """Per-edge mean committed rate over ``[start, end)``.

        One vectorized overlap computation plus one weighted
        :func:`numpy.bincount` over the array-backed piece columns.
        Bincount accumulates weights in row order, which restricted to
        any one edge is exactly the commit order the retained
        :meth:`background_reference` loop sums in — the Hypothesis suite
        pins the two bit-identical.
        """
        num_edges = self.topology.num_edges
        loads = np.zeros(num_edges)
        if not self._piece_start:
            return loads
        starts, ends, rates, eids = self._arrays()
        overlap = np.minimum(ends, end) - np.maximum(starts, start)
        mask = overlap > 0.0
        if not mask.any():
            return loads
        totals = np.bincount(
            eids[mask], weights=rates[mask] * overlap[mask],
            minlength=num_edges,
        )
        covered = totals > 0.0
        loads[covered] = totals[covered] / (end - start)
        return loads

    def background_reference(self, start: float, end: float) -> np.ndarray:
        """The PR-2 window-averaged background loop, retained verbatim as
        the pinning oracle for the vectorized :meth:`background`."""
        loads = np.zeros(self.topology.num_edges)
        span = end - start
        totals: dict[int, float] = {}
        for s, e, r, eid in zip(
            self._piece_start, self._piece_end,
            self._piece_rate, self._piece_eid,
        ):
            overlap = min(e, end) - max(s, start)
            if overlap > 0.0:
                totals[eid] = totals.get(eid, 0.0) + r * overlap
        for eid, total in totals.items():
            if total > 0.0:
                loads[eid] = total / span
        return loads

    def background_profile(self, start: float, end: float) -> BackgroundProfile:
        """The committed load over ``[start, end)`` *unaveraged*: a
        per-edge piecewise-constant :class:`BackgroundProfile`.

        The profile's support extends to the last live piece end (pieces
        outlive their window, and a window's elementary intervals reach
        past its boundary).
        """
        num_edges = self.topology.num_edges
        if self._piece_start:
            starts, ends, rates, eids = self._arrays()
            mask = ends > start
        else:
            mask = None
        if mask is None or not mask.any():
            return BackgroundProfile(
                num_edges,
                start,
                end,
                np.array([start, end]),
                np.zeros((1, num_edges)),
            )
        piece_starts = np.maximum(starts[mask], start)
        piece_ends = ends[mask]
        horizon = max(end, float(piece_ends.max()))
        times = np.unique(
            np.concatenate((piece_starts, piece_ends, [start, end, horizon]))
        )
        k = len(times) - 1
        piece_rates = rates[mask]
        piece_eids = eids[mask]
        delta = np.zeros((k + 1, num_edges))
        lo = np.searchsorted(times, piece_starts)
        hi = np.searchsorted(times, piece_ends)
        np.add.at(delta, (lo, piece_eids), piece_rates)
        np.subtract.at(delta, (hi, piece_eids), piece_rates)
        loads = np.cumsum(delta[:k], axis=0)
        # Cancellation residue from stacked +rate/-rate sums can leave
        # -1e-16-scale noise; the profile contract is loads >= 0.
        np.maximum(loads, 0.0, out=loads)
        return BackgroundProfile(num_edges, start, end, times, loads)

    def next_live_start(self, floor: float) -> float | None:
        """Earliest live-piece start clipped below at ``floor`` (None when
        no pieces remain) — the engine's quiet-gap skip primitive."""
        if not self._piece_start:
            return None
        starts = self._arrays()[0]
        return float(np.maximum(starts, floor).min())

    @property
    def has_live(self) -> bool:
        return bool(self._piece_start)

    def idle_energy(self, t0: float, t1: float) -> float:
        return self.power.sigma * (t1 - t0) * len(self.active_links)

    # ------------------------------------------------------------------
    # Snapshot plumbing (service engine).
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Plain-data snapshot of all accounting state (picklable)."""
        return {
            "pieces": {
                "start": list(self._piece_start),
                "end": list(self._piece_end),
                "rate": list(self._piece_rate),
                "edge_id": list(self._piece_eid),
            },
            "active_links": sorted(self.active_links),
            "events": list(self.events),
            "cur_rate": list(self.cur_rate),
            "last_t": list(self.last_t),
            "dynamic_energy": self.dynamic_energy,
            "peak_rate": self.peak_rate,
            "capacity_violations": self.capacity_violations,
            "max_resident": self.max_resident,
            "last_segment_end": self.last_segment_end,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` payload (same topology/power)."""
        pieces = state["pieces"]
        self._piece_start = list(pieces["start"])
        self._piece_end = list(pieces["end"])
        self._piece_rate = list(pieces["rate"])
        self._piece_eid = list(pieces["edge_id"])
        self._piece_arrays = None
        self.active_links = {tuple(e) for e in state["active_links"]}
        self.events = [tuple(e) for e in state["events"]]
        self.events.sort()  # heap invariant (sorted list is a valid heap)
        self.cur_rate = list(state["cur_rate"])
        self.last_t = list(state["last_t"])
        self.dynamic_energy = state["dynamic_energy"]
        self.peak_rate = state["peak_rate"]
        self.capacity_violations = state["capacity_violations"]
        self.max_resident = state["max_resident"]
        self.last_segment_end = state["last_segment_end"]


#: The loop's admission counters (snapshotted and restored by name).
_COUNTERS = (
    "flows_seen",
    "flows_served",
    "misses",
    "unserved",
    "volume_offered",
    "volume_delivered",
    "max_window_arrivals",
)


class WindowLoop:
    """The one window loop both replay engines run (DESIGN.md Section 6).

    It owns everything that is neither policy nor dispatch: ingest (the
    first-flow origin, the release-order and duplicate-id checks, fault
    events and the :class:`~repro.traces.repair.ChurnManager`), window
    bounds ``t0 + k * window``, the admission counters, the commit step,
    settlement, the trailing sweep and the :class:`ReplayReport`.  An
    *executor* decides how a window's schedules are produced and
    supplies three hooks:

    * ``close_window(k, arrivals)`` — take window ``k``'s arrivals.  Over
      the run every window must be committed (:meth:`commit`) and
      settled (:meth:`settle`) exactly once, in index order; when is the
      executor's choice.
    * ``busy_window(after, upto)`` — the first window in ``[after,
      upto]`` that may carry load: the quiet-gap skip.
    * ``drain()`` — commit and settle every window still in flight.

    :class:`ReplayEngine` is the inline executor (policy, commit and
    settle at once); :class:`~repro.service.sharded.ShardedReplayEngine`
    pipelines windows through shard workers and commits them later.
    """

    def __init__(
        self,
        topology: Topology,
        power: PowerModel,
        window: float,
        acct: WindowAccountant,
        executor,
        *,
        keep_schedules: bool = False,
        tol: float = 1e-6,
        faults: FaultSchedule | None = None,
        **churn_options,
    ) -> None:
        self.topology = topology
        self.power = power
        self.window = window
        self.acct = acct
        self.tol = tol
        self.kept: list[FlowSchedule] | None = [] if keep_schedules else None
        self._executor = executor
        #: Risk-group settings for the ChurnManager.
        self._churn_options = churn_options
        #: Built once the first flow fixes the window origin; until then
        #: the constructor's events, then inline ones, wait in ``_stash``
        #: (which a snapshot carries).
        self.churn: ChurnManager | None = None
        self._stash: list[FaultEvent] = (
            list(faults.fabric_events()) if faults is not None else []
        )
        self._down_epoch = -1
        self._down_view: frozenset[int] = frozenset()

        # Stream state.
        self.t0: float | None = None
        self.current = 0  # index of the window being filled
        self._pending: list[Flow] = []
        self._last_release = 0.0

        self.flows_seen = 0
        self.flows_served = 0
        self.misses = 0
        self.unserved = 0
        self.volume_offered = 0.0
        self.volume_delivered = 0.0
        self.max_window_arrivals = 0

    # ------------------------------------------------------------------
    # Ingest.
    # ------------------------------------------------------------------
    def feed(self, flow: Flow) -> None:
        """Admit one flow (releases must be nondecreasing)."""
        if self.t0 is None:
            self._start(flow)
            return
        if flow.release < self._last_release - 1e-9:
            raise ValidationError(
                f"trace is not sorted by release time: flow {flow.id!r} "
                f"released at {flow.release} after {self._last_release}"
            )
        self._last_release = max(self._last_release, flow.release)
        self.flows_seen += 1
        k = int((flow.release - self.t0) // self.window)
        while k > self.current:
            self._close(self.current, self._pending)
            self._pending = []
            self.current += 1
            if k > self.current:
                self.current = self._skip(
                    self.current, k, self._executor.busy_window
                )
        self._pending.append(flow)

    def feed_fault(self, event: FaultEvent) -> None:
        """Queue one fault event (worker crashes are dropped here: only
        the sharded executor has workers, and it takes them first)."""
        if self.churn is None:
            self._stash.append(event)
        else:
            self.churn.add_events((event,))

    def _start(self, first: Flow) -> None:
        """Fix the window origin at the first release and build the churn
        manager.  It exists even for fault-free runs (registry upkeep is
        cheap and keeps inline mid-stream events correct); with no events
        it never touches accounting, so fault-free output stays
        bit-identical to the pre-churn engine."""
        self.t0 = self._last_release = first.release
        self._pending = [first]
        self.flows_seen = 1
        churn = self._new_churn()
        churn.add_events(self._stash)
        self._stash = []
        # Events timestamped before the first release are pure state
        # toggles (nothing is committed yet) — pre-apply them so window 0
        # already sees the right dead-link set.
        churn.apply_upto(self.t0)

    def _new_churn(self) -> ChurnManager:
        churn = self.churn = ChurnManager(
            self.topology,
            self.power,
            self.acct,
            origin=self.t0,
            window=self.window,
            tol=self.tol,
            **self._churn_options,
        )
        churn.kept = self.kept
        return churn

    def _close(self, k: int, arrivals: list[Flow]) -> None:
        if len(arrivals) > self.max_window_arrivals:
            self.max_window_arrivals = len(arrivals)
        if arrivals:
            if len({flow.id for flow in arrivals}) != len(arrivals):
                raise ValidationError("duplicate flow ids within one window")
            self.volume_offered += sum(flow.size for flow in arrivals)
        self._executor.close_window(k, arrivals)

    def _skip(self, after: int, upto: int, busy) -> int:
        """First window in ``[after, upto]`` that must be settled.

        ``busy`` is the executor's (or, in the trailing sweep, the
        ledger's) quiet-gap skip.  It never passes the window holding the
        next pending fault event: an event inside a quiet gap settles in
        its own window, before any later window is scheduled against a
        stale dead-link set.
        """
        k = busy(after, upto)
        t = self.churn.next_event_time(self.t0 + after * self.window)
        if t is not None:
            k = min(k, max(after, int((t - self.t0) // self.window)))
        return k

    def live_window(self, after: int, upto: int) -> int:
        """First window in ``[after, upto]`` with accounting work.

        A window matters only if a live piece overlaps it or it is
        ``upto`` itself (where the next arrival lands); the quiet
        windows between are pure zeros and are skipped in one step —
        a month-long MMPP silence costs one min(), not 10^6 sweeps.
        """
        next_t = self.acct.next_live_start(self.t0 + after * self.window)
        if next_t is None:
            return upto
        return max(after, min(upto, int((next_t - self.t0) // self.window)))

    # ------------------------------------------------------------------
    # Executor services.
    # ------------------------------------------------------------------
    def bounds(self, k: int) -> tuple[float, float]:
        return self.t0 + k * self.window, self.t0 + (k + 1) * self.window

    def down_view(self) -> frozenset[int]:
        """The current dead-link set, one frozenset per churn epoch."""
        churn = self.churn
        if churn.epoch != self._down_epoch:
            self._down_epoch = churn.epoch
            self._down_view = churn.down_key()
        return self._down_view

    def context(
        self, k: int, down: frozenset[int], carry: dict
    ) -> WindowContext:
        """Window ``k``'s policy view.  The background profile reads the
        live ledger lazily, so it must be read before any of the
        window's own commits — and only a reader pays for it."""
        start, end = self.bounds(k)
        acct = self.acct
        return WindowContext(
            topology=self.topology,
            power=self.power,
            start=start,
            end=end,
            background_fn=lambda: acct.background_profile(start, end),
            carry=carry,
            down_edge_ids=down,
        )

    def commit(
        self,
        k: int,
        arrivals: list[Flow],
        schedules: Iterable[FlowSchedule],
        down: frozenset[int],
        source: str,
    ) -> list[tuple[FlowSchedule, bool]]:
        """Commit window ``k``'s schedules, in the order given.

        Each schedule must belong to a distinct arrival and lie inside its
        span (``source`` names the culprit otherwise).  Arrivals left
        unserved with no route on ``down`` — the dead-link view they were
        scheduled against — are attributed to the failure exactly once
        (they are never committed, so no later repair can re-attribute
        them).  Returns the committed ``(schedule, missed)`` pairs.
        """
        acct, churn, kept, tol = self.acct, self.churn, self.kept, self.tol
        by_id = {flow.id: flow for flow in arrivals}
        served_ids: set[int | str] = set()
        committed = []
        for fs in schedules:
            flow = by_id.get(fs.flow.id)
            if flow is None or (fs.flow is not flow and fs.flow != flow):
                raise ValidationError(
                    f"{source} returned a schedule for unknown flow "
                    f"{fs.flow.id!r} in window {k}"
                )
            if fs.flow.id in served_ids:
                raise ValidationError(
                    f"{source} scheduled flow {fs.flow.id!r} twice"
                )
            in_span, delivered, missed = flow_verdict(fs, flow, tol)
            if not in_span:
                raise ValidationError(
                    f"{source}: flow {fs.flow.id!r} scheduled outside "
                    "its span"
                )
            served_ids.add(fs.flow.id)
            self.flows_served += 1
            self.volume_delivered += delivered
            if missed:
                self.misses += 1
            acct.commit(fs)
            churn.register(flow, fs, missed)
            if kept is not None:
                kept.append(fs)
            committed.append((fs, missed))
        n_unserved = len(arrivals) - len(served_ids)
        self.unserved += n_unserved
        if n_unserved and down:
            # Partition tolerance: an arrival no route could reach
            # because the survivor fabric is disconnected is doomed by
            # the failure.
            for flow in arrivals:
                if flow.id not in served_ids and churn.unreachable(
                    flow.src, flow.dst, down
                ):
                    churn.misses_attributed += 1
        return committed

    def settle(self, k: int) -> None:
        """Close window ``k``: apply its fault events, then finalize.

        The one ordering invariant of the fault model — events must
        truncate and recommit *ahead* of the energy sweep passing their
        timestamps.
        """
        end = self.bounds(k)[1]
        self.churn.apply_upto(end)
        self.acct.finalize(end)

    # ------------------------------------------------------------------
    # Settlement.
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close the last window, drain the executor, and sweep the
        reservations still transmitting past it."""
        if self.t0 is None:
            raise ValidationError("trace produced no flows")
        self._close(self.current, self._pending)
        self._pending = []
        self._executor.drain()
        self.current += 1
        # Everything is committed now, so the live ledger drives the skip.
        acct, churn = self.acct, self.churn
        while acct.has_live or churn.has_pending:
            self.current = self._skip(self.current, 1 << 62, self.live_window)
            self.settle(self.current)
            self.current += 1
        churn.flush()
        acct.drain()

    def report(self, **fields) -> ReplayReport:
        """The run's :class:`ReplayReport`; ``fields`` carries what only
        the executor knows (policy name, fallbacks, shard stats, ...)."""
        acct, churn = self.acct, self.churn
        t1 = (
            acct.last_segment_end
            if acct.last_segment_end > self.t0
            else self._last_release
        )
        return ReplayReport(
            window=self.window,
            windows=self.current,
            horizon=(self.t0, t1),
            flows_seen=self.flows_seen,
            flows_served=self.flows_served,
            deadline_misses=self.misses + churn.extra_misses,
            unserved=self.unserved,
            volume_offered=self.volume_offered,
            volume_delivered=self.volume_delivered + churn.delivered_delta,
            idle_energy=acct.idle_energy(self.t0, t1),
            dynamic_energy=acct.dynamic_energy,
            active_links=len(acct.active_links),
            peak_link_rate=acct.peak_rate,
            capacity_violations=acct.capacity_violations,
            max_resident_segments=acct.max_resident,
            max_window_arrivals=self.max_window_arrivals,
            link_failures=churn.link_downs,
            link_recoveries=churn.link_ups,
            domain_failures=churn.domain_failures,
            domain_recoveries=churn.domain_recoveries,
            flows_rerouted=churn.flows_rerouted,
            repair_energy_delta=churn.repair_energy_delta,
            time_to_recover=churn.time_to_recover,
            total_recovery_time=churn.total_recovery_time,
            misses_attributed_to_failure=churn.misses_attributed,
            schedules=self.kept,
            **fields,
        )

    # ------------------------------------------------------------------
    # Snapshot plumbing (sharded service).
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Plain-data snapshot of the stream, counters, accounting and
        churn state (picklable)."""
        return {
            "t0": self.t0,
            "current": self.current,
            "pending": list(self._pending),
            "last_release": self._last_release,
            "counters": {name: getattr(self, name) for name in _COUNTERS},
            "stash": list(self._stash),
            "kept": None if self.kept is None else list(self.kept),
            "acct": self.acct.snapshot_state(),
            "churn": (
                None if self.churn is None else self.churn.snapshot_state()
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` payload (same configuration)."""
        self.t0 = state["t0"]
        self.current = state["current"]
        self._pending = list(state["pending"])
        self._last_release = state["last_release"]
        for name in _COUNTERS:
            setattr(self, name, state["counters"][name])
        self._stash = list(state["stash"])
        self.kept = None if state["kept"] is None else list(state["kept"])
        self.acct.restore_state(state["acct"])
        if state["churn"] is not None:
            # Overwrites the fresh manager's events, dead set and live
            # registry with the snapshotted ones.
            self._new_churn().restore_state(state["churn"])


class ReplayEngine:
    """Replay an arrival stream through ``policy`` in windows of ``window``.

    The inline executor of :class:`WindowLoop`: each window is scheduled
    by the policy, committed and settled as soon as it closes.

    Parameters
    ----------
    topology, power:
        The fabric and link power model every policy schedules against.
    policy:
        A :class:`~repro.traces.policies.ReplayPolicy`; its per-run state
        is reset at the start of each :meth:`run`.
    window:
        Epoch length in trace time units.
    keep_schedules:
        Retain every committed :class:`FlowSchedule` on the report (for
        cross-validation against the offline machinery).  Defeats the
        bounded-memory property; leave off for large traces.
    tol:
        Relative tolerance for deadline / volume / capacity verdicts.
    faults:
        Optional :class:`~repro.sim.churn.FaultSchedule` of link events to
        apply mid-replay (see :mod:`repro.traces.repair`).  Events may
        also arrive inline in the trace stream itself
        (``TraceReader(path, include_faults=True)``); both sources merge.
        With no faults from either source the replay output is
        bit-identical to a fault-free engine.  Committed flows a link-down
        displaces are rerouted greedily on the survivor fabric, most
        urgent first.
    failure_domains:
        Known :class:`~repro.sim.churn.FailureDomain` risk groups, seeded
        into the repair router's SRLG registry up front (domains observed
        in the event stream are learned automatically).
    srlg_diverse:
        Penalize repair routes crossing links that share a risk group
        with a currently-failed domain (on by default; turn off for the
        SRLG-blind ablation arm).
    """

    def __init__(
        self,
        topology: Topology,
        power: PowerModel,
        policy: ReplayPolicy,
        window: float,
        keep_schedules: bool = False,
        tol: float = 1e-6,
        faults: FaultSchedule | None = None,
        failure_domains: Iterable | None = None,
        srlg_diverse: bool = True,
    ) -> None:
        if not window > 0:
            raise ValidationError(f"window must be > 0, got {window}")
        self._topology = topology
        self._power = power
        self._policy = policy
        self._window = window
        self._keep = keep_schedules
        self._tol = tol
        self._faults = faults
        self._failure_domains = (
            tuple(failure_domains) if failure_domains is not None else None
        )
        self._srlg_diverse = srlg_diverse

    def _accountant(self) -> WindowAccountant:
        """Accountant factory — a seam the reference-pin suite overrides
        (swapping :meth:`WindowAccountant.background` for the retained
        loop) to pin whole replays against the pre-vectorization path."""
        return WindowAccountant(self._topology, self._power, tol=self._tol)

    def run(self, trace: Iterable[Flow]) -> ReplayReport:
        """Consume ``trace`` (nondecreasing releases) and report metrics.

        The stream may interleave :class:`~repro.sim.churn.FaultEvent`
        items (``TraceReader(path, include_faults=True)``).
        """
        self._policy.reset()
        # One dict per run, threaded through every WindowContext so a
        # policy's warm state (e.g. a relaxation pipeline) survives window
        # boundaries but never a run boundary.
        self._carry: dict = {}
        loop = self._loop = WindowLoop(
            self._topology,
            self._power,
            self._window,
            self._accountant(),
            self,
            keep_schedules=self._keep,
            tol=self._tol,
            faults=self._faults,
            domains=self._failure_domains,
            srlg_diverse=self._srlg_diverse,
        )
        for item in trace:
            if isinstance(item, FaultEvent):
                loop.feed_fault(item)
            else:
                loop.feed(item)
        loop.finish()
        policy = self._policy
        return loop.report(
            policy=policy.name,
            policy_fallbacks=getattr(policy, "fallbacks", 0),
            max_weight_drift=float(getattr(policy, "max_weight_drift", 0.0)),
        )

    # ------------------------------------------------------------------
    # Executor hooks (see WindowLoop).
    # ------------------------------------------------------------------
    def close_window(self, k: int, arrivals: list[Flow]) -> None:
        """Run the policy on window ``k``, commit its schedules in the
        order it returned them, and settle the window at once."""
        loop = self._loop
        if arrivals:
            down = loop.down_view()
            ctx = loop.context(k, down, self._carry)
            loop.commit(
                k,
                arrivals,
                self._policy.schedule_window(arrivals, ctx),
                down,
                f"policy {self._policy.name!r}",
            )
        loop.settle(k)

    def busy_window(self, after: int, upto: int) -> int:
        """Every earlier window is committed: read the live ledger."""
        return self._loop.live_window(after, upto)

    def drain(self) -> None:
        """Nothing is in flight: every window settled as it closed."""
