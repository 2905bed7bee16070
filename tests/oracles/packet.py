"""Store-and-forward packet-level validator.

Section III of the paper extends the virtual-circuit analysis to real
packet-switching networks: packets carry their flow's priority and each
link serves queued packets in priority order.  This simulator realizes
that model to validate that a fluid schedule's deadlines survive
packetization:

* every flow is chopped into packets of ``packet_size`` (the final one may
  be smaller);
* a packet becomes available at the source when the flow's *fluid* profile
  has produced its bytes;
* every link serves one packet at a time, drawing transmission speed from
  the link's scheduled aggregate rate profile (so a packet transmits
  exactly as fast as the fluid schedule funds that link);
* queueing is per-link, ordered by the chosen priority rule — ``"edf"``
  (earliest flow deadline, Algorithm 2's policy) or ``"start"`` (earliest
  scheduled start, Section III-C's rule for Most-Critical-First);
* packets hop store-and-forward; arrival at the destination timestamps it.

Store-and-forward necessarily adds up to ``(hops - 1) * packet_time`` of
pipeline fill latency over the fluid finish time, so the report exposes a
per-flow *lateness bound* against which tests assert.

No replay, experiment or benchmark runs it, so it lives beside the tests
as an oracle; they import it as ``tests.oracles.packet``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Literal, Mapping

from repro.errors import ValidationError
from repro.flows.flow import FlowSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.timeline import PiecewiseConstant
from repro.topology.base import Edge

__all__ = ["PacketReport", "simulate_packets"]

_EPS = 1e-9


class _RateServer:
    """Inverts a link's cumulative scheduled-rate curve.

    ``finish(start, volume)`` answers: serving at the link's scheduled rate
    from ``start``, when has ``volume`` been transmitted?  Store-and-forward
    pipelining pushes the tail packets slightly past the fluid profile's
    end, so after the last scheduled piece the link keeps serving at its
    maximum scheduled rate ("overtime"); the amount of overtime shows up in
    the report's lateness figures rather than as a hard failure.
    """

    def __init__(self, profile: PiecewiseConstant) -> None:
        self._pieces = [p for p in profile.pieces() if p[2] > 0.0]
        if not self._pieces:
            raise ValidationError("rate profile is empty")
        self._end = self._pieces[-1][1]
        self._overtime_rate = max(rate for _a, _b, rate in self._pieces)

    def finish(self, start: float, volume: float) -> float:
        remaining = volume
        for a, b, rate in self._pieces:
            if b <= start:
                continue
            begin = max(a, start)
            capacity = rate * (b - begin)
            if capacity >= remaining - _EPS:
                return begin + remaining / rate
            remaining -= capacity
        begin = max(self._end, start)
        return begin + remaining / self._overtime_rate


@dataclass(frozen=True)
class _Packet:
    flow_id: int | str
    seq: int
    size: float
    priority: tuple
    path: tuple[str, ...]


@dataclass
class PacketReport:
    """Per-flow packet-level outcomes.

    ``lateness`` is ``last packet arrival - deadline`` (negative = early).
    ``lateness_estimate`` is the heuristic per-hop pipeline figure
    ``(hops-1) * max interval + hops * packet time``; cascaded backlogs can
    exceed it when consecutive intervals change the flow mix sharply (the
    paper's Section III packet extension does not bound this either), so it
    is a diagnostic yardstick, not a guarantee.  Tests assert the hard
    invariants: every packet is delivered, per-flow delivery respects the
    packet order, and lateness stays a small fraction of the horizon.
    """

    arrival_times: Mapping[int | str, float]
    lateness: Mapping[int | str, float]
    lateness_estimate: Mapping[int | str, float]
    packets_delivered: int
    max_queue_length: int

    @property
    def max_lateness(self) -> float:
        return max(self.lateness.values())

    @property
    def within_estimate(self) -> bool:
        """True when every flow's lateness stays under the heuristic
        pipeline estimate."""
        return all(
            self.lateness[fid] <= self.lateness_estimate[fid] + 1e-6
            for fid in self.lateness
        )


def _availability_times(
    segments, size: float, packet_size: float
) -> list[tuple[float, float]]:
    """Source availability time and size of each packet of a flow.

    Packet ``j`` is available once the fluid profile has produced
    ``j * packet_size`` bytes — i.e. the source cannot inject faster than
    its scheduled rate.
    """
    packets: list[tuple[float, float]] = []
    produced = 0.0
    target = 0.0
    remaining_total = size
    cursor = 0
    seg_list = [(s.start, s.end, s.rate) for s in segments]
    while remaining_total > _EPS:
        this_size = min(packet_size, remaining_total)
        target += this_size
        # Advance through segments until cumulative production hits
        # ``target - this_size`` (the first byte of this packet exists).
        need = target - this_size
        produced_before = 0.0
        available = None
        for a, b, rate in seg_list:
            chunk = rate * (b - a)
            if produced_before + chunk >= need - _EPS:
                available = a + max(0.0, (need - produced_before)) / rate
                break
            produced_before += chunk
        if available is None:  # pragma: no cover - guarded by verify()
            raise ValidationError("flow profile produces less than its size")
        packets.append((available, this_size))
        remaining_total -= this_size
        cursor += 1
    return packets


def simulate_packets(
    schedule: Schedule,
    flows: FlowSet,
    packet_size: float = 0.25,
    priority: Literal["edf", "start"] = "edf",
) -> PacketReport:
    """Run the store-and-forward packet simulation for a whole schedule."""
    if packet_size <= 0:
        raise ValidationError(f"packet_size must be > 0, got {packet_size}")
    if priority not in ("edf", "start"):
        raise ValidationError(f"unknown priority rule {priority!r}")

    servers: dict[Edge, _RateServer] = {
        edge: _RateServer(profile)
        for edge, profile in schedule.link_rates().items()
    }

    # Build packets.
    packets: list[tuple[float, _Packet]] = []
    slowest_packet_time: dict[int | str, float] = {}
    for fs in schedule:
        flow = fs.flow
        if priority == "edf":
            prio = (flow.deadline, str(flow.id))
        else:
            prio = (fs.segments[0].start, str(flow.id))
        min_rate = min(s.rate for s in fs.segments)
        slowest_packet_time[flow.id] = packet_size / min_rate
        for seq, (available, size) in enumerate(
            _availability_times(fs.segments, flow.size, packet_size)
        ):
            packets.append(
                (
                    available,
                    _Packet(
                        flow_id=flow.id,
                        seq=seq,
                        size=size,
                        priority=prio + (seq,),
                        path=fs.path,
                    ),
                )
            )

    # Event-driven store-and-forward.
    counter = itertools.count()
    events: list[tuple[float, int, str, object]] = []
    for available, packet in packets:
        heapq.heappush(events, (available, next(counter), "arrive", (packet, 0)))

    queues: dict[Edge, list[tuple[tuple, int, _Packet, int]]] = {}
    busy_until: dict[Edge, float] = {}
    arrivals: dict[int | str, float] = {}
    delivered = 0
    max_queue = 0

    def edge_at(packet: _Packet, hop: int) -> Edge:
        u, v = packet.path[hop], packet.path[hop + 1]
        return (u, v) if u < v else (v, u)

    def try_start(edge: Edge, now: float) -> None:
        nonlocal max_queue
        queue = queues.get(edge)
        if not queue or busy_until.get(edge, -math.inf) > now + _EPS:
            return
        max_queue = max(max_queue, len(queue))
        _prio, _c, packet, hop = heapq.heappop(queue)
        finish = servers[edge].finish(now, packet.size)
        if math.isinf(finish):
            raise ValidationError(
                f"link {edge!r} has insufficient scheduled capacity for "
                f"flow {packet.flow_id!r} packet {packet.seq}"
            )
        busy_until[edge] = finish
        heapq.heappush(
            events, (finish, next(counter), "served", (packet, hop, edge))
        )

    while events:
        now, _seq, kind, payload = heapq.heappop(events)
        if kind == "arrive":
            packet, hop = payload
            edge = edge_at(packet, hop)
            queues.setdefault(edge, [])
            heapq.heappush(
                queues[edge], (packet.priority, next(counter), packet, hop)
            )
            try_start(edge, now)
        else:  # "served"
            packet, hop, edge = payload
            busy_until[edge] = now
            if hop + 1 < len(packet.path) - 1:
                heapq.heappush(
                    events, (now, next(counter), "arrive", (packet, hop + 1))
                )
            else:
                delivered += 1
                arrivals[packet.flow_id] = max(
                    arrivals.get(packet.flow_id, -math.inf), now
                )
            try_start(edge, now)

    # Heuristic per-hop pipeline estimate (see PacketReport docstring).
    max_interval = max(
        b - a for a, b in zip(flows.breakpoints(), flows.breakpoints()[1:])
    )
    lateness = {}
    estimates = {}
    for fs in schedule:
        flow = fs.flow
        hops = fs.num_links
        lateness[flow.id] = arrivals[flow.id] - flow.deadline
        estimates[flow.id] = (
            (hops - 1) * max_interval + hops * slowest_packet_time[flow.id]
        )
    return PacketReport(
        arrival_times=arrivals,
        lateness=lateness,
        lateness_estimate=estimates,
        packets_delivered=delivered,
        max_queue_length=max_queue,
    )
