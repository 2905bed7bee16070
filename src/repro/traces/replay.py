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
are final.  Energy is integrated in the :mod:`repro.sim.fluid` tradition,
charging each link ``mu * x^alpha * dt`` between its own consecutive rate
events, once per window: a window's commits are buffered as one row per
segment, expanded into columnar ``(edge, segment)`` pieces and their two
rate events each, and finalizing window ``k`` settles every event up to
``end_k`` in one vectorized sweep whose sums are, term for term and in
order, those of a global time-ordered event heap (DESIGN.md Section 18).
Finalization then garbage-collects every piece that ended inside the
window.  Resident state is one window of arrivals plus the
still-transmitting pieces — O(active), never O(trace) — which is what
lets a 100k-flow trace replay in a few seconds of constant memory.  The
integration-test suite pins the summed window energies against
:meth:`repro.scheduling.Schedule.energy` and the per-flow deadline
verdicts against :func:`repro.sim.fluid.simulate_fluid` on materialized
traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import ValidationError
from repro.flows.flow import Flow
from repro.power.model import PowerModel
from repro.routing.background import BackgroundProfile
from repro.scheduling.schedule import FEASIBILITY_TOL, FlowSchedule
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
    #: Windows whose shards solved with the greedy fallback instead of
    #: the relaxation because the solve budget was exhausted, counted
    #: once each (sharded service only; crash recovery degrades nothing).
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
    columns, the pending rate events and the per-window energy sweep,
    peak rate / capacity tracking, and the per-window background views.
    The single-owner :class:`ReplayEngine` and the sharded service engine
    both commit through this class, which is what keeps their energy
    accounting bit-identical.  Its state is plain Python and NumPy data,
    so the sharded service's snapshot pickles it as it stands.

    Committed load is columnar.  :meth:`commit` appends one buffer row
    per schedule segment; the buffer is expanded once per window, at the
    first read or settle point, into ``(edge, segment)`` *pieces* — four
    parallel columns ``(start, end, rate, edge id)`` in commit order —
    and into their rate events, two per piece (``+rate`` at its start,
    ``-rate`` at its end).  :meth:`sweep` settles the events due by a
    time in one vectorized pass whose arithmetic is, sum for sum, that of
    a global time-ordered event heap (the retired implementation, kept
    in the test suite as the oracle): see :meth:`sweep`.

    Policies read committed load in one of two forms.  :attr:`pieces`
    hands over the live pieces themselves, which the load-aware
    streaming policies seed their
    :class:`~repro.routing.fastpath.LoadLedger` with;
    :meth:`background_profile` resolves them into the
    :class:`~repro.routing.background.BackgroundProfile` that
    Relax+Round and the sharded service's shards schedule against.
    :meth:`background` (the mean vector over one
    span, which greedy fault repair routes on) is a single vectorized
    overlap + :func:`numpy.bincount` pass over the columns, pinned
    bit-identical to a per-piece Python loop in the test suite, because
    both accumulate each edge's ``rate * overlap`` terms in commit order.
    """

    #: Cells one sweep grid may hold before the due events are split at a
    #: time and swept in two passes (see :meth:`_settle`).
    _GRID_CELLS = 1 << 16

    def __init__(self, topology: Topology, power: PowerModel) -> None:
        self.topology = topology
        self.power = power
        num_edges = topology.num_edges
        # Live pieces (parallel columns, commit order).
        self._start = np.empty(0)
        self._end = np.empty(0)
        self._rate = np.empty(0)
        self._eid = np.empty(0, dtype=np.int64)
        # Pending rate events, in no particular order.
        self._ev_t = np.empty(0)
        self._ev_eid = np.empty(0, dtype=np.int64)
        self._ev_delta = np.empty(0)
        # Commits not yet expanded: one (start, end, rate, route length)
        # row per segment, plus the routes' edge ids back to back.
        self._buffer: list[tuple[float, float, float, int]] = []
        self._buffer_eids: list[int] = []
        self._active: set[int] = set()
        # Each link's current stacked rate and last event time.
        self.cur_rate = np.zeros(num_edges)
        self.last_t = np.zeros(num_edges)
        self.dynamic_energy = 0.0
        self.peak_rate = 0.0
        self.capacity_violations = 0
        self.max_resident = 0
        self.last_segment_end = -np.inf
        self._edge_id = topology.edge_id
        self._mu, self._alpha = power.mu, power.alpha
        self._quadratic = power.alpha == 2.0
        self._cap_limit = power.capacity * (1.0 + FEASIBILITY_TOL)

    # ------------------------------------------------------------------
    # Commitment.
    # ------------------------------------------------------------------
    def edge_ids(self, path: tuple[str, ...]) -> tuple[int, ...]:
        """Dense edge ids along a node path, in path order."""
        return tuple(map(self._edge_id, path_edges(path)))

    def commit(self, fs: FlowSchedule) -> tuple[int, ...]:
        """Register one irrevocable schedule and return its route's edge
        ids.  The schedule is buffered, one row per segment; its pieces
        and events appear at the next read or settle point."""
        eids = self.edge_ids(fs.path)
        self._active.update(eids)
        buffer, flat = self._buffer, self._buffer_eids
        n = len(eids)
        for seg in fs.segments:
            buffer.append((seg.start, seg.end, seg.rate, n))
            flat.extend(eids)
            if seg.end > self.last_segment_end:
                self.last_segment_end = seg.end
        return eids

    def _merge(self) -> None:
        """Expand the commit buffer into pieces and their events: one
        :func:`numpy.repeat` of the segments over their route lengths."""
        if not self._buffer:
            return
        rows = np.array(self._buffer)
        lens = rows[:, 3].astype(np.int64)
        eids = np.array(self._buffer_eids, dtype=np.int64)
        starts = np.repeat(rows[:, 0], lens)
        ends = np.repeat(rows[:, 1], lens)
        rates = np.repeat(rows[:, 2], lens)
        self._buffer = []
        self._buffer_eids = []
        self._start = np.concatenate((self._start, starts))
        self._end = np.concatenate((self._end, ends))
        self._rate = np.concatenate((self._rate, rates))
        self._eid = np.concatenate((self._eid, eids))
        self._ev_t = np.concatenate((self._ev_t, starts, ends))
        self._ev_eid = np.concatenate((self._ev_eid, eids, eids))
        self._ev_delta = np.concatenate((self._ev_delta, rates, -rates))

    @property
    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The live pieces as ``(starts, ends, rates, edge ids)`` columns
        in commit order (do not mutate)."""
        self._merge()
        return self._start, self._end, self._rate, self._eid

    # ------------------------------------------------------------------
    # Energy sweep and garbage collection.
    # ------------------------------------------------------------------
    def sweep(self, upto: float) -> None:
        """Settle every pending event at or before ``upto``, charging each
        link ``mu * rate^alpha * dt`` between its own consecutive events.

        The arithmetic is the event heap's, step for step.  The due
        events are ordered by (edge, time, delta) — the heap's pop order
        on each edge — and each edge's rate trajectory is one row-wise
        :func:`numpy.cumsum` of ``[carried rate, delta_1, delta_2, ...]``,
        the heap's running sum in the heap's order.  The charges are
        added to ``dynamic_energy`` with :func:`numpy.add.accumulate` in
        global (time, edge, delta) order — the heap's global pop order —
        so the total, peak rate, capacity violations and every link's
        rate and last event time equal the heap's bit for bit.
        """
        self._merge()
        due = self._ev_t <= upto
        if not due.any():
            return
        columns = (self._ev_t, self._ev_eid, self._ev_delta)
        later = ~due
        self._ev_t, self._ev_eid, self._ev_delta = (c[later] for c in columns)
        self._settle(*(c[due] for c in columns))

    def _settle(
        self, t: np.ndarray, eid: np.ndarray, delta: np.ndarray
    ) -> None:
        """Apply one batch of due events (see :meth:`sweep`)."""
        n = len(t)
        order = np.lexsort((delta, t, eid))
        t, eid, delta = t[order], eid[order], delta[order]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(eid[1:], eid[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        counts = np.diff(np.append(heads, n))
        width = int(counts.max()) + 1
        last = t.max()
        grid_cells = len(heads) * width
        if grid_cells > max(self._GRID_CELLS, 8 * n) and t.min() < last:
            # One busy edge would pad every row to its length: settle the
            # earlier events first.  Splitting between two distinct times
            # keeps the heap's order, which is time-major.
            split = np.partition(t, n // 2)[n // 2]
            first = t <= split if split < last else t < split
            self._settle(t[first], eid[first], delta[first])
            rest = ~first
            self._settle(t[rest], eid[rest], delta[rest])
            return
        edges = eid[heads]
        row = np.cumsum(head) - 1
        col = np.arange(n) - heads[row]
        grid = np.zeros((len(heads), width))
        grid[:, 0] = self.cur_rate[edges]
        grid[row, col + 1] = delta
        grid = np.cumsum(grid, axis=1)
        rate = grid[row, col]  # each link's rate just before each event
        before = np.empty(n)
        before[1:] = t[:-1]
        before[heads] = self.last_t[edges]
        dt = t - before
        self.cur_rate[edges] = grid[np.arange(len(heads)), counts]
        self.last_t[edges] = t[heads + counts - 1]
        charged = (rate > 0.0) & (dt > 0.0)
        if not charged.any():
            return
        rate, dt = rate[charged], dt[charged]
        if self._quadratic:  # rate*rate skips the pow kernel
            charge = self._mu * rate * rate * dt
        else:  # Python's pow, exactly as the heap charged it
            alpha = self._alpha
            powered = np.array([r**alpha for r in rate.tolist()])
            charge = self._mu * powered * dt
        glob = np.lexsort((delta[charged], eid[charged], t[charged]))
        total = np.empty(len(charge) + 1)
        total[0] = self.dynamic_energy
        total[1:] = charge[glob]
        self.dynamic_energy = float(np.add.accumulate(total)[-1])
        peak = float(rate.max())
        if peak > self.peak_rate:
            self.peak_rate = peak
        self.capacity_violations += int(
            np.count_nonzero(rate > self._cap_limit)
        )

    def finalize(self, end: float) -> None:
        """Close a window ending at ``end``: sweep energy, drop dead pieces."""
        self._merge()
        n = len(self._start)
        if n > self.max_resident:
            self.max_resident = n
        self.sweep(end)
        if n:
            keep = self._end > end
            if not keep.all():
                self._start = self._start[keep]
                self._end = self._end[keep]
                self._rate = self._rate[keep]
                self._eid = self._eid[keep]

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
        and a compensating event pair is appended so the energy sweep
        sees the rate drop at ``cut`` instead of the original end.
        ``cut`` must lie beyond the last finalized boundary — the engines
        only truncate inside the window being settled, which guarantees
        the compensations land ahead of the sweep.

        Returns ``(removed_volume, removed_standalone_energy)``: the
        flow volume no longer delivered and the standalone dynamic
        energy (rate^alpha, per edge) of the voided tail — the honest
        inputs to repair accounting.
        """
        route = self.edge_ids(path)
        starts, ends, rates, eids = self.pieces
        mu, alpha = self._mu, self._alpha
        removed_volume = 0.0
        removed_energy = 0.0
        drop: list[int] = []
        events: list[tuple[float, int, float]] = []
        for seg in segments:
            if seg.end <= cut:
                continue
            lost = seg.rate * (seg.end - max(cut, seg.start))
            removed_volume += lost
            removed_energy += (
                mu * seg.rate**alpha * (seg.end - max(cut, seg.start))
            ) * len(route)
            same = np.flatnonzero(
                (starts == seg.start) & (ends == seg.end) & (rates == seg.rate)
            )
            for eid in route:
                # This commitment's live piece for (edge, segment): the
                # newest match (commits are recent).
                hits = same[eids[same] == eid]
                if not len(hits):
                    raise ValidationError(
                        f"truncate_commit: no live piece matches segment "
                        f"[{seg.start}, {seg.end}) @ {seg.rate} on edge "
                        f"{self.topology.edges[eid]!r} (already finalized?)"
                    )
                i = hits[-1]
                events.append((max(cut, seg.start), eid, -seg.rate))
                events.append((seg.end, eid, seg.rate))
                if cut > seg.start:
                    ends[i] = cut
                else:
                    drop.append(i)
        if drop:
            keep = np.ones(len(starts), dtype=bool)
            keep[drop] = False
            self._start, self._end = starts[keep], ends[keep]
            self._rate, self._eid = rates[keep], eids[keep]
        if events:
            self._append_events(events)
        return removed_volume, removed_energy

    def _append_events(self, events: list[tuple[float, int, float]]) -> None:
        t, eid, delta = zip(*events)
        self._ev_t = np.concatenate((self._ev_t, t))
        self._ev_eid = np.concatenate(
            (self._ev_eid, np.array(eid, dtype=np.int64))
        )
        self._ev_delta = np.concatenate((self._ev_delta, delta))

    # ------------------------------------------------------------------
    # Views.
    # ------------------------------------------------------------------
    def background(self, start: float, end: float) -> np.ndarray:
        """Per-edge mean committed rate over ``[start, end)``.

        One vectorized overlap computation plus one weighted
        :func:`numpy.bincount` over the piece columns.  Bincount
        accumulates weights in row order, which restricted to any one
        edge is exactly the commit order a per-piece loop sums in — the
        Hypothesis suite pins the two bit-identical.
        """
        num_edges = self.topology.num_edges
        loads = np.zeros(num_edges)
        starts, ends, rates, eids = self.pieces
        if not len(starts):
            return loads
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

    def background_profile(self, start: float, end: float) -> BackgroundProfile:
        """The committed load over ``[start, end)`` *unaveraged*: a
        per-edge piecewise-constant :class:`BackgroundProfile`.

        The profile's support extends to the last live piece end (pieces
        outlive their window, and a window's elementary intervals reach
        past its boundary).
        """
        num_edges = self.topology.num_edges
        starts, ends, rates, eids = self.pieces
        mask = ends > start
        if not mask.any():
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
        starts = self.pieces[0]
        if not len(starts):
            return None
        return float(np.maximum(starts, floor).min())

    @property
    def has_live(self) -> bool:
        return len(self.pieces[0]) > 0

    @property
    def active_links(self) -> set[Edge]:
        """Every link any commitment has used (powered for the run)."""
        edges = self.topology.edges
        return {edges[eid] for eid in self._active}

    def idle_energy(self, t0: float, t1: float) -> float:
        return self.power.sigma * (t1 - t0) * len(self._active)


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
    * ``settle_in_flight()`` — commit and settle every window still in
      flight.

    :class:`ReplayEngine` is the inline executor (policy, commit and
    settle at once); :class:`~repro.service.sharded.ReplayService`
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
        faults: FaultSchedule | None = None,
        **churn_options,
    ) -> None:
        self.topology = topology
        self.power = power
        self.window = window
        self.acct = acct
        self.kept: list[FlowSchedule] | None = [] if keep_schedules else None
        self._executor = executor
        #: Risk-group settings for the ChurnManager.
        self._churn_options = churn_options
        #: Built once the first flow fixes the window origin; until then
        #: the constructor's events, then inline ones, wait in ``_stash``.
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
        churn = self.churn = ChurnManager(
            self.topology,
            self.power,
            self.acct,
            origin=self.t0,
            window=self.window,
            **self._churn_options,
        )
        churn.kept = self.kept
        churn.add_events(self._stash)
        self._stash = []
        # Events timestamped before the first release are pure state
        # toggles (nothing is committed yet) — pre-apply them so window 0
        # already sees the right dead-link set.
        churn.apply_upto(self.t0)

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

    def context(self, k: int, down: frozenset[int]) -> WindowContext:
        """Window ``k``'s policy view.  The background profile and the
        live pieces read the accountant lazily, so they must be read
        before any of the window's own commits — and only a reader pays
        for them."""
        start, end = self.bounds(k)
        acct = self.acct
        return WindowContext(
            topology=self.topology,
            power=self.power,
            start=start,
            end=end,
            background_fn=lambda: acct.background_profile(start, end),
            pieces_fn=lambda: acct.pieces,
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
        acct, churn, kept = self.acct, self.churn, self.kept
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
            in_span, delivered, missed = flow_verdict(
                fs, flow, FEASIBILITY_TOL
            )
            if not in_span:
                raise ValidationError(
                    f"{source}: flow {fs.flow.id!r} scheduled outside "
                    "its span"
                )
            busy_until = churn.live_until(flow)
            if busy_until is not None:
                raise ValidationError(
                    f"flow id {flow.id!r} released at {flow.release} is "
                    f"still in use by a flow transmitting until {busy_until}"
                )
            served_ids.add(fs.flow.id)
            self.flows_served += 1
            self.volume_delivered += delivered
            if missed:
                self.misses += 1
            churn.register(flow, fs, missed, acct.commit(fs))
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
        self._executor.settle_in_flight()
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
        self._faults = faults
        self._failure_domains = (
            tuple(failure_domains) if failure_domains is not None else None
        )
        self._srlg_diverse = srlg_diverse

    def _accountant(self) -> WindowAccountant:
        """Accountant factory — a seam the reference-pin suite overrides
        (swapping :meth:`WindowAccountant.background` for a per-piece
        loop) to pin whole replays against the pre-vectorization path."""
        return WindowAccountant(self._topology, self._power)

    def run(self, trace: Iterable[Flow]) -> ReplayReport:
        """Consume ``trace`` (nondecreasing releases) and report metrics.

        The stream may interleave :class:`~repro.sim.churn.FaultEvent`
        items (``TraceReader(path, include_faults=True)``).
        """
        self._policy.reset()
        loop = self._loop = WindowLoop(
            self._topology,
            self._power,
            self._window,
            self._accountant(),
            self,
            keep_schedules=self._keep,
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
            ctx = loop.context(k, down)
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

    def settle_in_flight(self) -> None:
        """Nothing is in flight: every window settled as it closed."""
