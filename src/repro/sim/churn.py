"""Mid-replay fault injection: seeded link churn and worker crashes.

:mod:`repro.sim.failures` degrades a fabric *before* a run.  This module
is the streaming counterpart (ROADMAP direction 3): a
:class:`FaultSchedule` is a time-ordered sequence of :class:`FaultEvent`
items — link-down, link-up, and shard-worker-crash — that the replay
engines merge into the arrival stream and apply at window boundaries.
Events are first-class trace citizens: the JSONL trace store serializes
them (:meth:`FaultEvent.to_record`), :class:`~repro.traces.store.
TraceReader` can yield them inline, and
:meth:`FaultSchedule.generate` draws a seeded, connectivity-safe churn
process so policy × failure-rate grids are reproducible.

Two small routing helpers live here too, because everything that must
reason about "the fabric minus the currently dead links" shares them:

* :func:`survivor_shortest_path` — the deterministic BFS of
  :meth:`~repro.topology.base.Topology.shortest_path` restricted to the
  surviving links (same sorted-neighbor tie-break, so with no dead links
  it returns the identical route);
* :func:`survivor_topology` — the induced :class:`Topology` on the
  surviving links plus the edge-id map back to the parent, which is what
  lets the Relax+Round replay policy solve a window on the honest
  survivor fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import networkx as nx
import numpy as np

from repro.errors import TopologyError, ValidationError
from repro.topology.base import Edge, Topology, canonical_edge

__all__ = [
    "FailureDomain",
    "FaultEvent",
    "FaultSchedule",
    "survivor_shortest_path",
    "survivor_topology",
    "switch_domains",
]

LINK_DOWN = "link_down"
LINK_UP = "link_up"
WORKER_CRASH = "worker_crash"
SWITCH_DOWN = "switch_down"
SWITCH_UP = "switch_up"
SRLG_DOWN = "srlg_down"
SRLG_UP = "srlg_up"

_KINDS = (
    LINK_DOWN,
    LINK_UP,
    WORKER_CRASH,
    SWITCH_DOWN,
    SWITCH_UP,
    SRLG_DOWN,
    SRLG_UP,
)
#: Kinds that take fabric capacity away / give it back.  A domain kind
#: expands to its member links *atomically* — every member link fails (or
#: recovers) at the same instant, before any repair routing runs.
DOWN_KINDS = (LINK_DOWN, SWITCH_DOWN, SRLG_DOWN)
UP_KINDS = (LINK_UP, SWITCH_UP, SRLG_UP)


def _canonical_edges(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """Canonicalize, dedupe, and sort an edge collection (stable member
    order: expansions and serializations never depend on input order)."""
    return tuple(sorted({canonical_edge(*e) for e in edges}))


@dataclass(frozen=True)
class FailureDomain:
    """A named shared-risk link group: links that fail *together*.

    ``edges`` is the canonical, sorted, deduplicated member set.  A
    whole-switch domain additionally records its ``node`` — its members
    are every link incident to that switch, and its events use the
    ``switch_down``/``switch_up`` kinds (self-describing given the
    topology); arbitrary SRLGs (a conduit, a line card) carry their
    member edges on the events themselves (``srlg_down``/``srlg_up``),
    so a serialized schedule round-trips without an external registry.
    """

    name: str
    edges: tuple[Edge, ...]
    node: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("failure domain requires a name")
        if not self.edges:
            raise ValidationError(
                f"failure domain {self.name!r} has no member links"
            )
        object.__setattr__(self, "edges", _canonical_edges(self.edges))

    @classmethod
    def switch(cls, topology: Topology, node: str) -> "FailureDomain":
        """The whole-switch domain: every link incident to ``node``."""
        if not topology.has_node(node):
            raise ValidationError(f"unknown node {node!r}")
        incident = [
            canonical_edge(node, nbr)
            for nbr in topology.graph.neighbors(node)
        ]
        return cls(name=f"switch:{node}", edges=tuple(incident), node=node)

    @classmethod
    def srlg(cls, name: str, edges: Iterable[Edge]) -> "FailureDomain":
        return cls(name=name, edges=tuple(edges))

    def member_edge_ids(self, topology: Topology) -> frozenset[int]:
        return frozenset(topology.edge_id(e) for e in self.edges)

    def down_event(self, time: float) -> "FaultEvent":
        if self.node is not None:
            return FaultEvent(time=time, kind=SWITCH_DOWN, node=self.node)
        return FaultEvent(
            time=time, kind=SRLG_DOWN, domain=self.name, edges=self.edges
        )

    def up_event(self, time: float) -> "FaultEvent":
        if self.node is not None:
            return FaultEvent(time=time, kind=SWITCH_UP, node=self.node)
        return FaultEvent(
            time=time, kind=SRLG_UP, domain=self.name, edges=self.edges
        )


def switch_domains(
    topology: Topology, *, switches_only: bool = True
) -> tuple[FailureDomain, ...]:
    """One whole-switch :class:`FailureDomain` per (sorted) switch node."""
    hosts = set(topology.hosts)
    return tuple(
        FailureDomain.switch(topology, node)
        for node in sorted(topology.graph.nodes)
        if not (switches_only and node in hosts)
    )


@dataclass(frozen=True)
class FaultEvent:
    """One fault or recovery, timestamped in trace time.

    ``edge`` (canonical, sorted endpoints) is required for the link
    kinds; ``shard`` is required for ``worker_crash`` and names the shard
    worker index the sharded service should kill; ``node`` is required
    for the whole-switch kinds (the outage covers every incident link);
    ``domain`` plus the member ``edges`` are required for the SRLG kinds
    (the event is self-contained — serialized schedules need no external
    domain registry).
    """

    time: float
    kind: str
    edge: Edge | None = None
    shard: int | None = None
    node: str | None = None
    domain: str | None = None
    edges: tuple[Edge, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r} (expected one of {_KINDS})"
            )
        if self.kind in (LINK_DOWN, LINK_UP):
            if self.edge is None:
                raise ValidationError(f"{self.kind} event requires an edge")
            object.__setattr__(self, "edge", canonical_edge(*self.edge))
        elif self.kind in (SWITCH_DOWN, SWITCH_UP):
            if not self.node:
                raise ValidationError(f"{self.kind} event requires a node")
        elif self.kind in (SRLG_DOWN, SRLG_UP):
            if not self.domain:
                raise ValidationError(
                    f"{self.kind} event requires a domain name"
                )
            if not self.edges:
                raise ValidationError(
                    f"{self.kind} event requires the member edges"
                )
            object.__setattr__(self, "edges", _canonical_edges(self.edges))
        elif self.shard is None or self.shard < 0:
            raise ValidationError(
                f"worker_crash event requires a shard index >= 0, "
                f"got {self.shard!r}"
            )

    @property
    def is_link(self) -> bool:
        return self.kind in (LINK_DOWN, LINK_UP)

    @property
    def is_fabric(self) -> bool:
        """Does this event change fabric capacity (vs. kill a worker)?"""
        return self.kind != WORKER_CRASH

    @property
    def is_down(self) -> bool:
        return self.kind in DOWN_KINDS

    def domain_key(self) -> str | None:
        """The risk-group name this event belongs to (None for raw link
        and worker events).  Whole-switch domains use ``switch:<node>``,
        matching :meth:`FailureDomain.switch`."""
        if self.kind in (SWITCH_DOWN, SWITCH_UP):
            return f"switch:{self.node}"
        if self.kind in (SRLG_DOWN, SRLG_UP):
            return self.domain
        return None

    def member_edges(self, topology: Topology) -> tuple[Edge, ...]:
        """The canonical member links this event takes down / brings up,
        in stable (sorted) order.  Raw link events expand to themselves;
        worker events have no members."""
        if self.kind in (LINK_DOWN, LINK_UP):
            return (self.edge,)
        if self.kind in (SWITCH_DOWN, SWITCH_UP):
            if not topology.has_node(self.node):
                raise ValidationError(
                    f"{self.kind} targets unknown node {self.node!r}"
                )
            return _canonical_edges(
                canonical_edge(self.node, nbr)
                for nbr in topology.graph.neighbors(self.node)
            )
        if self.kind in (SRLG_DOWN, SRLG_UP):
            return self.edges
        return ()

    def expand(self, topology: Topology) -> tuple["FaultEvent", ...]:
        """The equivalent raw link events, one per member link, all at
        this event's timestamp (the atomic multi-link outage a domain
        event denotes).  Worker events expand to themselves."""
        if not self.is_fabric:
            return (self,)
        kind = LINK_DOWN if self.is_down else LINK_UP
        return tuple(
            FaultEvent(time=self.time, kind=kind, edge=edge)
            for edge in self.member_edges(topology)
        )

    def to_record(self) -> dict:
        """JSONL-ready plain-data form (see :mod:`repro.traces.store`)."""
        record: dict = {"event": self.kind, "time": self.time}
        if self.edge is not None:
            record["edge"] = list(self.edge)
        if self.shard is not None:
            record["shard"] = self.shard
        if self.node is not None:
            record["node"] = self.node
        if self.domain is not None:
            record["domain"] = self.domain
        if self.edges is not None:
            record["edges"] = [list(e) for e in self.edges]
        return record

    @classmethod
    def from_record(cls, record: dict, where: str = "fault") -> "FaultEvent":
        try:
            edge = record.get("edge")
            edges = record.get("edges")
            return cls(
                time=float(record["time"]),
                kind=record["event"],
                edge=tuple(edge) if edge is not None else None,
                shard=record.get("shard"),
                node=record.get("node"),
                domain=record.get("domain"),
                edges=(
                    tuple(tuple(e) for e in edges)
                    if edges is not None
                    else None
                ),
            )
        except KeyError as exc:
            raise ValidationError(f"{where}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: bad field value ({exc})") from exc
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc


class FaultSchedule:
    """A time-ordered, immutable sequence of :class:`FaultEvent` items.

    The constructor sorts stably by time (events at equal times keep
    their given order — a down and an up of the same link at the same
    instant apply in sequence) and validates event pairing *per source*:
    a raw link may not go down twice without an up in between, nor up
    while up, and a failure domain (switch or SRLG) must likewise
    alternate down/up, with an SRLG's up event carrying the same member
    set as its down.  **Overlap across sources is legal**: a link may be
    covered by a down domain *and* a concurrent raw ``link_down`` (or by
    two overlapping down domains) — the appliers count per-link outage
    multiplicity, and a link recovers only when every covering outage
    has lifted.  Only the same-source double-down is rejected, because
    it has no well-defined pairing.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        ordered = sorted(events, key=lambda e: e.time)
        down: set[Edge] = set()
        down_domains: dict[str, tuple[Edge, ...] | None] = {}
        for event in ordered:
            if event.kind == LINK_DOWN:
                if event.edge in down:
                    raise ValidationError(
                        f"link {event.edge!r} goes down twice (at t="
                        f"{event.time}) without recovering"
                    )
                down.add(event.edge)
            elif event.kind == LINK_UP:
                if event.edge not in down:
                    raise ValidationError(
                        f"link {event.edge!r} recovers at t={event.time} "
                        "without having failed"
                    )
                down.discard(event.edge)
            elif event.kind in (SWITCH_DOWN, SRLG_DOWN):
                key = event.domain_key()
                if key in down_domains:
                    raise ValidationError(
                        f"failure domain {key!r} goes down twice (at t="
                        f"{event.time}) without recovering"
                    )
                down_domains[key] = event.edges
            elif event.kind in (SWITCH_UP, SRLG_UP):
                key = event.domain_key()
                if key not in down_domains:
                    raise ValidationError(
                        f"failure domain {key!r} recovers at t="
                        f"{event.time} without having failed"
                    )
                if (
                    event.kind == SRLG_UP
                    and down_domains[key] != event.edges
                ):
                    raise ValidationError(
                        f"srlg_up for {key!r} at t={event.time} lists "
                        f"members {event.edges!r}; the matching srlg_down "
                        f"listed {down_domains[key]!r}"
                    )
                del down_domains[key]
        self._events: tuple[FaultEvent, ...] = tuple(ordered)

    # ------------------------------------------------------------------
    # Container protocol.
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def link_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self._events if e.is_link)

    def fabric_events(self) -> tuple[FaultEvent, ...]:
        """Every capacity-changing event: raw link + domain kinds."""
        return tuple(e for e in self._events if e.is_fabric)

    def worker_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self._events if e.kind == WORKER_CRASH)

    def link_downtime(
        self, topology: Topology, end: float, start: float = 0.0
    ) -> float:
        """Total link-seconds of outage over ``[start, end)``.

        Counts the *union* of concurrent outages per link (a link dead
        under two overlapping domains contributes once), by sweeping the
        schedule's expanded member events with per-link multiplicity —
        the honest normalizer for comparing correlated against
        independent churn at matched downtime fraction.
        """
        count: dict[int, int] = {}
        n_down = 0
        total = 0.0
        last_t = start
        for event in self._events:
            if not event.is_fabric:
                continue
            t = min(max(event.time, start), end)
            if t > last_t:
                total += n_down * (t - last_t)
                last_t = t
            for edge in event.member_edges(topology):
                eid = topology.edge_id(edge)
                c = count.get(eid, 0)
                if event.is_down:
                    count[eid] = c + 1
                    if c == 0:
                        n_down += 1
                elif c > 0:
                    count[eid] = c - 1
                    if c == 1:
                        n_down -= 1
        if end > last_t:
            total += n_down * (end - last_t)
        return total

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def scripted(
        cls, items: Sequence[tuple]
    ) -> "FaultSchedule":
        """Build from ``(time, kind, target)`` tuples.

        ``("down"``/``"up"``, edge)`` shorthands are accepted for the
        link kinds; an int third element with kind ``"crash"`` (or
        ``worker_crash``) names a shard worker; a
        :class:`FailureDomain` target with ``"down"``/``"up"`` scripts
        the domain's own event kind (whole-switch or SRLG); a plain
        string target with ``"down"``/``"up"`` names a switch.
        """
        alias = {"down": LINK_DOWN, "up": LINK_UP, "crash": WORKER_CRASH}
        events = []
        for time, kind, target in items:
            kind = alias.get(kind, kind)
            if kind == WORKER_CRASH:
                events.append(FaultEvent(time=time, kind=kind, shard=target))
            elif isinstance(target, FailureDomain):
                events.append(
                    target.down_event(time)
                    if kind in DOWN_KINDS
                    else target.up_event(time)
                )
            elif kind in (SWITCH_DOWN, SWITCH_UP) or (
                kind in (LINK_DOWN, LINK_UP) and isinstance(target, str)
            ):
                switch_kind = (
                    SWITCH_DOWN if kind in DOWN_KINDS else SWITCH_UP
                )
                events.append(
                    FaultEvent(time=time, kind=switch_kind, node=target)
                )
            else:
                events.append(
                    FaultEvent(time=time, kind=kind, edge=tuple(target))
                )
        return cls(events)

    @classmethod
    def generate(
        cls,
        topology: Topology,
        *,
        rate: float,
        duration: float,
        start: float = 0.0,
        mttr: float | None = None,
        seed: int = 0,
        protect_host_links: bool = True,
        rng: np.random.Generator | None = None,
    ) -> "FaultSchedule":
        """Draw a seeded, connectivity-safe link-churn process.

        Failure attempts arrive Poisson at ``rate`` per unit time over
        ``[start, start + duration)``; each picks a uniformly random live
        non-host link and fails it iff every host stays connected given
        the links already down — unsafe attempts are skipped, so every
        prefix of the schedule leaves the fabric serving.  Each failed
        link recovers after an Exp(``mttr``) repair delay (default: one
        tenth of ``duration``).  Identical ``(topology, parameters,
        seed)`` always yield the identical schedule.
        """
        if rate < 0:
            raise ValidationError(f"rate must be >= 0, got {rate}")
        if duration <= 0:
            raise ValidationError(f"duration must be > 0, got {duration}")
        if mttr is None:
            mttr = duration / 10.0
        if mttr <= 0:
            raise ValidationError(f"mttr must be > 0, got {mttr}")
        if rng is None:
            rng = np.random.default_rng(seed)
        hosts = set(topology.hosts)
        candidates = [
            edge
            for edge in topology.edges
            if not (
                protect_host_links
                and (edge[0] in hosts or edge[1] in hosts)
            )
        ]
        events: list[FaultEvent] = []
        if rate == 0 or not candidates:
            return cls(events)
        graph = topology.graph.copy()
        down: set[Edge] = set()
        # (recovery time, edge) of pending repairs, kept time-sorted.
        repairs: list[tuple[float, Edge]] = []
        t = start
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= start + duration:
                break
            # Apply repairs that completed before this attempt, so the
            # safety check sees the honest current fabric.
            while repairs and repairs[0][0] <= t:
                _, edge = repairs.pop(0)
                graph.add_edge(*edge)
                down.discard(edge)
            edge = candidates[int(rng.integers(len(candidates)))]
            if edge in down:
                continue
            graph.remove_edge(*edge)
            if not nx.is_connected(graph):
                graph.add_edge(*edge)
                continue
            down.add(edge)
            events.append(FaultEvent(time=t, kind=LINK_DOWN, edge=edge))
            up_at = t + float(rng.exponential(mttr))
            events.append(FaultEvent(time=up_at, kind=LINK_UP, edge=edge))
            repairs.append((up_at, edge))
            repairs.sort()
        return cls(events)

    @classmethod
    def generate_correlated(
        cls,
        topology: Topology,
        *,
        rate: float,
        duration: float,
        start: float = 0.0,
        mttr: float | None = None,
        seed: int = 0,
        domains: Sequence[FailureDomain] | None = None,
        cascade: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> "FaultSchedule":
        """Draw a seeded *domain-level* Poisson churn process.

        The unit of failure is a :class:`FailureDomain` (default: every
        whole-switch domain of ``topology``), not an independent link:
        each attempt, arriving Poisson at ``rate`` per unit time over
        ``[start, start + duration)``, picks a uniformly random domain
        and — unlike :meth:`generate`, which rejects unsafe draws — fails
        it **with no connectivity check**: a whole-switch outage is
        allowed to partition the fabric (killing an edge switch strands
        its hosts).  Attempts on an already-down domain are skipped; each
        failed domain recovers after an Exp(``mttr``) repair delay
        (default one tenth of ``duration``).

        ``cascade`` adds the correlated tail that makes shared risk
        *risk*: each primary failure gives every domain whose member
        edges touch one of its endpoints (a physical-proximity proxy —
        same conduit, same linecard) an independent
        ``cascade``-probability follow-on failure after an
        Exp(``mttr / 2``) delay (secondary failures do not cascade
        further, so storms are bounded).  An edge adjacent to a down
        domain is then genuinely more likely to die soon — exactly the
        hazard SRLG-diverse repair routes away from.
        Identical ``(topology, parameters, seed)`` always yield the
        identical schedule.
        """
        if rate < 0:
            raise ValidationError(f"rate must be >= 0, got {rate}")
        if duration <= 0:
            raise ValidationError(f"duration must be > 0, got {duration}")
        if mttr is None:
            mttr = duration / 10.0
        if mttr <= 0:
            raise ValidationError(f"mttr must be > 0, got {mttr}")
        if not 0.0 <= cascade <= 1.0:
            raise ValidationError(
                f"cascade must be in [0, 1], got {cascade}"
            )
        if rng is None:
            rng = np.random.default_rng(seed)
        pool = (
            switch_domains(topology) if domains is None else tuple(domains)
        )
        events: list[FaultEvent] = []
        if rate == 0 or not pool:
            return cls(events)
        neighbors: list[list[int]] = []
        if cascade > 0:
            touches = [
                {node for edge in domain.edges for node in edge}
                for domain in pool
            ]
            neighbors = [
                [
                    j
                    for j in range(len(pool))
                    if j != i and touches[i] & touches[j]
                ]
                for i in range(len(pool))
            ]
        end = start + duration
        down_names: set[str] = set()
        repairs: list[tuple[float, str]] = []
        cascades: list[tuple[float, int]] = []

        def fail(index: int, at: float, primary: bool) -> None:
            domain = pool[index]
            down_names.add(domain.name)
            events.append(domain.down_event(at))
            up_at = at + float(rng.exponential(mttr))
            events.append(domain.up_event(up_at))
            repairs.append((up_at, domain.name))
            repairs.sort()
            if primary and cascade > 0:
                for j in neighbors[index]:
                    if rng.random() < cascade:
                        cascades.append(
                            (at + float(rng.exponential(mttr / 2.0)), j)
                        )
                cascades.sort()

        def settle(upto: float) -> None:
            # Chronological merge of repairs and cascaded follow-ons, so
            # an already-down check always sees the state at fire time.
            while True:
                t_rep = repairs[0][0] if repairs else np.inf
                t_cas = cascades[0][0] if cascades else np.inf
                if min(t_rep, t_cas) > upto:
                    return
                if t_rep <= t_cas:
                    _, name = repairs.pop(0)
                    down_names.discard(name)
                else:
                    at, index = cascades.pop(0)
                    if at < end and pool[index].name not in down_names:
                        fail(index, at, primary=False)

        t = start
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= end:
                break
            settle(t)
            index = int(rng.integers(len(pool)))
            if pool[index].name in down_names:
                continue
            fail(index, t, primary=True)
        settle(end)
        return cls(events)


# ----------------------------------------------------------------------
# Survivor-fabric helpers.
# ----------------------------------------------------------------------
def survivor_shortest_path(
    topology: Topology,
    down_edge_ids: frozenset[int] | set[int],
    src: str,
    dst: str,
) -> tuple[str, ...]:
    """Deterministic hop-shortest path avoiding the dead links.

    The same sorted-neighbor BFS as :meth:`Topology.shortest_path`, with
    edges in ``down_edge_ids`` (dense parent edge ids) skipped — so with
    an empty dead set it returns the identical route.  Raises
    :class:`TopologyError` when no surviving path exists.
    """
    if src == dst:
        raise TopologyError("shortest_path requires distinct endpoints")
    if not topology.has_node(src) or not topology.has_node(dst):
        raise TopologyError(f"unknown endpoint in ({src!r}, {dst!r})")
    edge_id = topology.edge_id
    graph = topology.graph
    parent: dict[str, str] = {src: src}
    frontier = [src]
    while frontier:
        next_frontier: list[str] = []
        for node in frontier:
            for nbr in sorted(graph.neighbors(node)):
                if nbr in parent:
                    continue
                if edge_id(canonical_edge(node, nbr)) in down_edge_ids:
                    continue
                parent[nbr] = node
                if nbr == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                next_frontier.append(nbr)
        frontier = next_frontier
    raise TopologyError(
        f"no surviving path between {src!r} and {dst!r} "
        f"({len(down_edge_ids)} links down)"
    )


def survivor_topology(
    topology: Topology, down_edge_ids: frozenset[int] | set[int]
) -> tuple[Topology, np.ndarray]:
    """The fabric minus the dead links, plus the parent edge-id map.

    Returns ``(survivor, edge_map)`` where ``edge_map[i]`` is the parent
    edge id of survivor edge ``i`` — ``parent_vector[edge_map]``
    restricts any dense per-edge vector (background loads) to the
    survivor fabric, and survivor node paths are valid parent paths
    verbatim.  The survivor graph may be disconnected; per-pair
    reachability is the caller's concern.
    """
    graph = topology.graph.copy()
    edges = topology.edges
    for eid in sorted(down_edge_ids):
        u, v = edges[eid]
        graph.remove_edge(u, v)
    survivor = Topology(
        graph,
        name=f"{topology.name}-down{len(down_edge_ids)}",
        groups=topology.node_groups or None,
    )
    edge_map = np.asarray(
        [topology.edge_id(e) for e in survivor.edges], dtype=np.int64
    )
    return survivor, edge_map
