"""Self-healing replay: apply link churn to committed reservations.

:class:`ChurnManager` is the component both replay engines delegate
mid-replay faults to.  It owns the current dead-link set, the pending
:class:`~repro.sim.churn.FaultEvent` queue, a registry of still-live
committed flows, and the repair machinery that keeps the replay honest
when a link dies under committed traffic.

**Fault semantics** (DESIGN.md §13).  Events are detected at window
granularity: an event timestamped ``t`` inside window ``k`` is applied
after window ``k``'s arrivals are scheduled and before the window is
finalized.  A link-down at ``t``:

1. truncates every committed reservation crossing the dead link at ``t``
   (:meth:`~repro.traces.replay.WindowAccountant.truncate_commit` — the
   voided tail's volume and standalone energy are returned, so delivered
   volume and the energy sweep stay exact);
2. classifies each affected flow — **unaffected** (already past the cut,
   up to a tolerance sliver), **repairable** (a surviving route exists
   and the deadline leaves room past the recommit boundary ``b`` = end
   of window ``k``), or **doomed** (no survivor path, or no time left);
3. recommits each repairable flow on the survivor fabric at the constant
   rate that delivers the truncated remainder by its deadline, starting
   at ``b`` — so ``time_to_recover`` is exactly ``b - t``, bounded by
   one window.

Doomed flows surface as ``misses_attributed_to_failure`` and their lost
volume is subtracted from delivered; nothing is silently forgiven.

**Repair.**  Each repairable flow is re-routed with marginal
envelope-cost Dijkstra against the currently committed background, dead
links clamped to an avoid-at-all-costs weight; a returned route still
crossing a dead link means no survivor path exists.  Repairs commit one
at a time, most urgent first, so the order decides which flow gets the
cheapest survivor path.  The repair is deterministic, which keeps the
sharded engine bit-identical under snapshot/restore.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import Iterable

import numpy as np

from repro.errors import TopologyError, ValidationError
from repro.flows.flow import Flow
from repro.power.model import PowerModel
from repro.routing.costs import DEAD_EDGE_WEIGHT, envelope_cost, marginal_price
from repro.routing.fastpath import FastRouter
from repro.scheduling.schedule import FEASIBILITY_TOL, FlowSchedule, Segment
from repro.sim.churn import (
    DOWN_KINDS,
    SWITCH_DOWN,
    SWITCH_UP,
    FailureDomain,
    FaultEvent,
    survivor_shortest_path,
)
from repro.topology.base import Topology

__all__ = ["ChurnManager", "SRLG_PENALTY"]

#: Multiplier applied to surviving links that share a risk group with a
#: currently-failed domain (SRLG-diverse repair).  Large enough that any
#: risk-disjoint route wins, small enough that a risky route still beats
#: a dead one — a repair placed on a risky link is legal, just last
#: resort, because the correlated follow-on failure would re-disrupt it.
SRLG_PENALTY = 1e6


class _LiveFlow:
    """Registry entry for one committed, not-yet-settled flow."""

    __slots__ = ("flow", "path", "eids", "segments", "missed")

    def __init__(self, flow, path, eids, segments, missed):
        self.flow = flow
        self.path = path
        self.eids = eids
        self.segments = segments
        self.missed = missed

    @property
    def completion(self) -> float:
        return self.segments[-1].end if self.segments else -np.inf


class ChurnManager:
    """Dead-link state, live-flow registry, and committed-flow repair.

    Built by the window loop (:class:`~repro.traces.replay.WindowLoop`)
    once the first flow fixes the window origin.  With no events it never
    touches accounting, which keeps fault-free runs bit-identical to the
    pre-churn engines.  The registry holds only flows still transmitting
    past the last settled window: :meth:`apply_upto` drops the rest.
    Displaced flows are repaired by greedy survivor rerouting, most
    urgent first (see the module docstring).
    """

    def __init__(
        self,
        topology: Topology,
        power: PowerModel,
        acct,
        *,
        origin: float,
        window: float,
        domains: Iterable[FailureDomain] | None = None,
        srlg_diverse: bool = True,
    ) -> None:
        self._topology = topology
        self._power = power
        self._acct = acct
        self._origin = origin
        self._window = window
        self._cost = envelope_cost(power)

        #: Pending events, time-sorted; ``_applied_upto`` guards ordering.
        self._events: list[FaultEvent] = []
        self._applied_upto = -np.inf
        #: Per-link outage multiplicity: a link may be covered by several
        #: concurrent outages (a down domain plus a raw link_down, or two
        #: overlapping domains); it resurrects only on the 1 -> 0 edge.
        self._down_count: dict[int, int] = {}
        #: Derived view: the ids with positive multiplicity.
        self.down: set[int] = set()
        self.epoch = 0

        # Risk-group registry for SRLG-diverse repair: domains supplied
        # up front plus every domain observed in the event stream.
        self._srlg_diverse = srlg_diverse
        self._risk_groups: dict[str, frozenset[int]] = {}
        if domains is not None:
            for domain in domains:
                self._risk_groups[domain.name] = domain.member_edge_ids(
                    topology
                )
        #: Currently-failed domain names / switch nodes.
        self._down_domains: set[str] = set()
        self.down_switches: set[str] = set()
        self._risky_epoch = -1
        self._risky: np.ndarray | None = None
        #: Survivor-reachability memo per dead-link set (pure cache).
        self._reach_cache: dict[frozenset, dict] = {}

        self._live: dict = {}  # flow id -> _LiveFlow, commit order
        self._completions: list[tuple[float, object]] = []  # lazy heap
        self._pending_void: list = []  # flow ids committed onto dead links

        self._router: FastRouter | None = None

        #: Optional sink for repair commitments (the engine's
        #: ``keep_schedules`` list).
        self.kept: list | None = None

        # Disruption counters (merged into the report by the engine).
        self.link_downs = 0
        self.link_ups = 0
        self.domain_failures = 0
        self.domain_recoveries = 0
        self.flows_rerouted = 0
        self.repair_energy_delta = 0.0
        self.time_to_recover = 0.0
        self.total_recovery_time = 0.0
        self.misses_attributed = 0
        self.extra_misses = 0
        self.delivered_delta = 0.0

    # ------------------------------------------------------------------
    # Event intake.
    # ------------------------------------------------------------------
    def add_events(self, events: Iterable[FaultEvent]) -> None:
        """Queue fabric events (worker crashes are not ours to apply)."""
        for event in events:
            if not event.is_fabric:
                continue
            if event.time < self._applied_upto:
                raise ValidationError(
                    f"fault event at t={event.time} arrived after the "
                    f"replay already settled through {self._applied_upto}"
                )
            insort(self._events, event, key=lambda e: e.time)

    @property
    def has_pending(self) -> bool:
        return bool(self._events)

    def next_event_time(self, floor: float) -> float | None:
        """Time of the first pending event at or after ``floor`` (None
        when there is none).  The window loop's quiet-gap skip stops at
        that event's window, so every event settles in its own window."""
        events = self._events
        i = bisect_left(events, floor, key=lambda e: e.time)
        return events[i].time if i < len(events) else None

    def down_key(self) -> frozenset[int]:
        return frozenset(self.down)

    # ------------------------------------------------------------------
    # Live-flow registry.
    # ------------------------------------------------------------------
    def live_until(self, flow: Flow) -> float | None:
        """Completion time of the registered flow with ``flow``'s id when
        it is still transmitting at ``flow``'s release (None otherwise):
        the registry is keyed by id, so that id is not free yet."""
        lf = self._live.get(flow.id)
        if lf is not None and lf.completion > flow.release:
            return lf.completion
        return None

    def register(
        self,
        flow: Flow,
        fs: FlowSchedule,
        missed: bool,
        edge_ids: Iterable[int] | None = None,
    ) -> None:
        """Track one freshly committed schedule for repair.  ``edge_ids``
        is its route as :meth:`~repro.traces.replay.WindowAccountant.
        commit` returned it (converted from ``fs.path`` when omitted)."""
        if edge_ids is None:
            edge_ids = self._acct.edge_ids(fs.path)
        eids = frozenset(edge_ids)
        lf = _LiveFlow(flow, fs.path, eids, tuple(fs.segments), missed)
        self._live[flow.id] = lf
        heappush(self._completions, (lf.completion, str(flow.id), flow.id))
        if self.down and eids & self.down:
            # Safety net for policies that are not fault-aware: the
            # commitment crosses a link that is already dead, so it never
            # transmits — voided and repaired at the window boundary.
            self._pending_void.append(flow.id)

    def _prune(self, upto: float) -> None:
        """Drop registry entries fully settled before ``upto``."""
        heap = self._completions
        while heap and heap[0][0] <= upto:
            completion, _key, flow_id = heappop(heap)
            lf = self._live.get(flow_id)
            if lf is not None and lf.completion == completion:
                del self._live[flow_id]

    # ------------------------------------------------------------------
    # Application.
    # ------------------------------------------------------------------
    def _boundary(self, t: float) -> float:
        """End of the window containing ``t`` — the recommit boundary."""
        k = int((t - self._origin) // self._window)
        return self._origin + (k + 1) * self._window

    def apply_upto(self, end: float) -> None:
        """Apply every pending event with ``time < end``, in time order.

        Engines call this immediately before each accountant
        ``finalize(end)`` — events must truncate and recommit *ahead* of
        the energy sweep passing their timestamps.
        """
        if self._pending_void:
            # Flows committed onto an already-dead link during the window
            # now being settled: voided at release, recommitted at ``end``.
            self._void_pending(end)
        while self._events and self._events[0].time < end:
            event = self._events.pop(0)
            boundary = min(self._boundary(event.time), end)
            if event.kind in DOWN_KINDS:
                # Atomicity: every down event at this instant (a domain's
                # member links, or several simultaneous domains) applies
                # as ONE outage — all links die before any repair routes,
                # so no repair can land on a link failing the same
                # instant.  A down and an up at equal times still apply
                # in sequence (the documented schedule order).
                batch = [event]
                while (
                    self._events
                    and self._events[0].time == event.time
                    and self._events[0].kind in DOWN_KINDS
                ):
                    batch.append(self._events.pop(0))
                self._apply_down_batch(batch, boundary)
            else:
                self._apply_up(event)
        self._applied_upto = max(self._applied_upto, end)
        # No later event can reach a flow that completed by ``end``: drop
        # it, so the registry (and every snapshot) tracks the live set
        # rather than the whole trace.
        self._prune(end)

    def flush(self) -> None:
        """Apply any events beyond the last settled window (no live
        reservations can remain there — pure state toggles)."""
        self.apply_upto(np.inf)

    def _void_pending(self, boundary: float) -> None:
        ids, self._pending_void = self._pending_void, []
        for flow_id in ids:
            lf = self._live.get(flow_id)
            if lf is None or not (lf.eids & self.down):
                continue
            self._disrupt(lf, cut=lf.flow.release, boundary=boundary)

    def _member_eids(self, event: FaultEvent) -> list[int]:
        """Dense member edge ids of one fabric event, stable order."""
        edge_id = self._topology.edge_id
        return [
            edge_id(edge) for edge in event.member_edges(self._topology)
        ]

    def _note_domain(self, event: FaultEvent, eids: Iterable[int]) -> None:
        """Learn an observed domain's membership for the risk registry."""
        key = event.domain_key()
        if key is not None:
            self._risk_groups[key] = frozenset(eids)

    def _apply_up(self, event: FaultEvent) -> None:
        eids = self._member_eids(event)
        self._note_domain(event, eids)
        changed = False
        for eid in eids:
            count = self._down_count.get(eid, 0)
            if count <= 0:
                continue  # recovery of a link that was never down here
            if count == 1:
                del self._down_count[eid]
                self.down.discard(eid)
                self.link_ups += 1
                changed = True
            else:
                self._down_count[eid] = count - 1
        key = event.domain_key()
        if key is not None and key in self._down_domains:
            self._down_domains.discard(key)
            self.domain_recoveries += 1
            changed = True
            if event.kind == SWITCH_UP:
                self.down_switches.discard(event.node)
        if changed:
            self.epoch += 1

    def _apply_down_batch(
        self, events: list[FaultEvent], boundary: float
    ) -> None:
        """Apply equal-time down events as one atomic multi-link outage:
        all member links die first, then the union of affected committed
        flows is repaired once against the full survivor fabric."""
        t = events[0].time
        new_eids: set[int] = set()
        changed = False
        for event in events:
            eids = self._member_eids(event)
            self._note_domain(event, eids)
            key = event.domain_key()
            if key is not None and key not in self._down_domains:
                self._down_domains.add(key)
                self.domain_failures += 1
                changed = True
                if event.kind == SWITCH_DOWN:
                    self.down_switches.add(event.node)
            for eid in eids:
                count = self._down_count.get(eid, 0)
                self._down_count[eid] = count + 1
                if count == 0:
                    new_eids.add(eid)
                    self.down.add(eid)
                    self.link_downs += 1
                    changed = True
        if changed:
            self.epoch += 1
        if not new_eids:
            return
        self._prune(t)
        affected = [
            lf
            for lf in list(self._live.values())
            if (lf.eids & new_eids) and lf.completion > t
        ]
        if not affected:
            return
        # Repair order: repairs commit one at a time, each against the
        # background the earlier ones left, so the most urgent flow goes
        # first and gets the cheapest survivor path.  Urgency is remaining
        # volume per unit of deadline slack — a huge flow about to miss
        # outranks a small one with room to spare.  Stable id tie-break
        # keeps the order deterministic under snapshot/restore.
        def urgency(lf: _LiveFlow) -> tuple[float, str]:
            cut = max(t, lf.flow.release)
            remaining = sum(
                seg.rate * (seg.end - max(cut, seg.start))
                for seg in lf.segments
                if seg.end > cut
            )
            slack = max(lf.flow.deadline - boundary, FEASIBILITY_TOL)
            return (-remaining / slack, str(lf.flow.id))

        affected.sort(key=urgency)
        for lf in affected:
            self._disrupt(lf, cut=max(t, lf.flow.release), boundary=boundary)

    # ------------------------------------------------------------------
    # Disruption core (truncate + classify + greedy repair).
    # ------------------------------------------------------------------
    def _disrupt(self, lf: _LiveFlow, cut: float, boundary: float) -> None:
        """Truncate ``lf`` at ``cut`` and repair or doom it at
        ``boundary``."""
        flow = lf.flow
        removed_volume, removed_energy = self._acct.truncate_commit(
            lf.path, lf.segments, cut
        )
        # Mirror the truncation onto the registry entry so a later event
        # matches the accountant's (modified) live pieces exactly.
        lf.segments = tuple(
            seg if seg.end <= cut else Segment(seg.start, cut, seg.rate)
            for seg in lf.segments
            if seg.start < cut
        )
        if removed_volume <= FEASIBILITY_TOL * flow.size:
            # Effectively complete: accept the sliver loss, no repair.
            self.delivered_delta -= removed_volume
            self._live.pop(flow.id, None)
            return
        path = (
            self._greedy_route(flow, boundary)
            if flow.deadline > boundary + FEASIBILITY_TOL
            else None
        )
        if path is None:
            # Doomed: no survivor route, or no time left to recommit.
            self.delivered_delta -= removed_volume
            if not lf.missed:
                lf.missed = True
                self.extra_misses += 1
                self.misses_attributed += 1
            self._live.pop(flow.id, None)
            return
        rate = removed_volume / (flow.deadline - boundary)
        fs = FlowSchedule(
            flow=flow,
            path=path,
            segments=(Segment(boundary, flow.deadline, rate),),
        )
        eids = self._acct.commit(fs)
        if self.kept is not None:
            self.kept.append(fs)
        lf.path = path
        lf.eids = frozenset(eids)
        lf.segments = tuple(fs.segments)
        heappush(
            self._completions, (lf.completion, str(flow.id), flow.id)
        )
        self.flows_rerouted += 1
        self.repair_energy_delta += (
            self._power.mu
            * rate**self._power.alpha
            * (flow.deadline - boundary)
            * (len(path) - 1)
            - removed_energy
        )
        recover = boundary - cut
        if recover > self.time_to_recover:
            self.time_to_recover = recover
        # Cumulative recovery: every repair contributes its own
        # event-to-recommit gap, so a flow re-disrupted by a correlated
        # follow-on failure (an SRLG-blind repair landing on a sibling
        # risk link) pays twice — the metric SRLG-diverse repair wins on.
        self.total_recovery_time += recover

    def _risky_edges(self) -> np.ndarray | None:
        """Surviving links that share a risk group with a failed domain.

        A live link is *risky* while any registered risk group contains
        both it and a member of a currently-down domain — the correlated
        follow-on failure would take it too, so SRLG-diverse repair
        penalizes (not forbids) routing repairs across it.  Memoized per
        epoch; empty registry or no down domains means no penalty, which
        keeps domain-free runs bit-identical.
        """
        if not self._srlg_diverse or not self._down_domains:
            return None
        if self._risky_epoch == self.epoch:
            return self._risky
        failed: set[int] = set()
        for name in self._down_domains:
            failed |= self._risk_groups.get(name, frozenset())
        risky: set[int] = set()
        for members in self._risk_groups.values():
            if members & failed:
                risky |= members
        risky -= self.down
        self._risky_epoch = self.epoch
        self._risky = (
            np.asarray(sorted(risky), dtype=np.int64) if risky else None
        )
        return self._risky

    def _greedy_route(
        self, flow: Flow, boundary: float
    ) -> tuple[str, ...] | None:
        """Marginal-cost survivor route, or None when no survivor path.

        SRLG-diverse mode multiplies risky links (see
        :meth:`_risky_edges`) by :data:`SRLG_PENALTY` before the dead
        clamp, so risk-disjoint survivor routes win whenever one exists.
        """
        router = self._router
        if router is None:
            router = self._router = FastRouter(self._topology)
        loads = self._acct.background(boundary, flow.deadline)
        weights = marginal_price(self._cost, loads)
        risky = self._risky_edges()
        if risky is not None:
            weights[risky] = np.minimum(
                weights[risky] * SRLG_PENALTY, DEAD_EDGE_WEIGHT / 1e3
            )
        if self.down:
            weights[sorted(self.down)] = DEAD_EDGE_WEIGHT
        try:
            path, eids = router.route(flow.src, flow.dst, weights)
        except TopologyError:
            return None
        if self.down and any(int(eid) in self.down for eid in eids):
            return None
        return path

    # ------------------------------------------------------------------
    # Survivor reachability (partition tolerance).
    # ------------------------------------------------------------------
    def unreachable(
        self, src: str, dst: str, down: frozenset[int] | None = None
    ) -> bool:
        """Is ``src -> dst`` cut off by ``down`` (default: the current
        dead set)?  The engines use this to attribute an arrival that no
        policy could route to the failure — exactly once, since such a
        flow is never committed.  Memoized per dead-link set."""
        down = self.down_key() if down is None else down
        if not down:
            return False
        cache = self._reach_cache.get(down)
        if cache is None:
            if len(self._reach_cache) >= 8:
                self._reach_cache.clear()
            cache = self._reach_cache[down] = {}
        key = (src, dst)
        verdict = cache.get(key)
        if verdict is None:
            try:
                survivor_shortest_path(self._topology, down, src, dst)
                verdict = False
            except TopologyError:
                verdict = True
            cache[key] = verdict
        return verdict
