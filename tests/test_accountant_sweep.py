"""The accountant's columnar energy sweep, pinned to the event heap.

:class:`WindowAccountant` settles a window's rate events in one
vectorized pass (DESIGN.md Section 18).  The event-heap accountant it
replaced is kept here, verbatim in its arithmetic, as the oracle: every
committed ``(edge, segment)`` piece pushes a ``+rate`` event at its start
and a ``-rate`` event at its end onto one global ``(time, edge id,
delta)`` heap, and a sweep pops them one at a time.  Hypothesis drives
both through the same commits, truncations, finalize boundaries and
pickle round trips (the sharded service's snapshot pickles the
accountant whole) and requires every accounting output to be
bit-identical, not approximately equal.
"""

from __future__ import annotations

import pickle
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.flows import Flow
from repro.power import PowerModel
from repro.scheduling import FlowSchedule, Segment
from repro.topology import fat_tree, star
from repro.topology.base import path_edges
from repro.traces.replay import WindowAccountant


class HeapAccountant:
    """The retired event-heap accountant (energy and pieces only)."""

    def __init__(self, topology, power, tol=1e-6):
        self.topology = topology
        #: Live pieces ``[start, end, rate, edge id]``, commit order.
        self.pieces: list[list] = []
        self.events: list[tuple[float, int, float]] = []
        self.cur_rate = [0.0] * topology.num_edges
        self.last_t = [0.0] * topology.num_edges
        self.dynamic_energy = 0.0
        self.peak_rate = 0.0
        self.capacity_violations = 0
        self.max_resident = 0
        self._mu, self._alpha = power.mu, power.alpha
        self._quadratic = power.alpha == 2.0
        self._cap_limit = power.capacity * (1.0 + tol)

    def _route(self, path):
        return [self.topology.edge_id(e) for e in path_edges(path)]

    def commit(self, fs):
        for eid in self._route(fs.path):
            for seg in fs.segments:
                self.pieces.append([seg.start, seg.end, seg.rate, eid])
                heappush(self.events, (seg.start, eid, seg.rate))
                heappush(self.events, (seg.end, eid, -seg.rate))

    def sweep(self, upto):
        events, cur_rate, last_t = self.events, self.cur_rate, self.last_t
        mu, alpha = self._mu, self._alpha
        while events and events[0][0] <= upto:
            t, eid, delta = heappop(events)
            rate = cur_rate[eid]
            if rate > 0.0:
                dt = t - last_t[eid]
                if dt > 0.0:
                    if self._quadratic:
                        self.dynamic_energy += mu * rate * rate * dt
                    else:
                        self.dynamic_energy += mu * rate**alpha * dt
                    if rate > self.peak_rate:
                        self.peak_rate = rate
                    if rate > self._cap_limit:
                        self.capacity_violations += 1
            cur_rate[eid] = rate + delta
            last_t[eid] = t

    def finalize(self, end):
        self.max_resident = max(self.max_resident, len(self.pieces))
        self.sweep(end)
        self.pieces = [p for p in self.pieces if p[1] > end]

    def drain(self):
        self.sweep(np.inf)

    def truncate_commit(self, path, segments, cut):
        route = self._route(path)
        mu, alpha = self._mu, self._alpha
        removed_volume = removed_energy = 0.0
        drop = []
        for seg in segments:
            if seg.end <= cut:
                continue
            removed_volume += seg.rate * (seg.end - max(cut, seg.start))
            removed_energy += (
                mu * seg.rate**alpha * (seg.end - max(cut, seg.start))
            ) * len(route)
            for eid in route:
                for i in range(len(self.pieces) - 1, -1, -1):
                    if self.pieces[i] == [seg.start, seg.end, seg.rate, eid]:
                        heappush(
                            self.events, (max(cut, seg.start), eid, -seg.rate)
                        )
                        heappush(self.events, (seg.end, eid, seg.rate))
                        if cut > seg.start:
                            self.pieces[i][1] = cut
                        else:
                            drop.append(i)
                        break
                else:
                    raise ValidationError("no live piece matches")
        for i in sorted(drop, reverse=True):
            del self.pieces[i]
        return removed_volume, removed_energy


def accounting_state(acct: WindowAccountant) -> tuple:
    """Every field of ``acct`` a restored accountant must carry over."""
    columns = (*acct.pieces, acct._ev_t, acct._ev_eid, acct._ev_delta)
    return (
        [column.tolist() for column in columns],
        acct.cur_rate.tolist(),
        acct.last_t.tolist(),
        acct.dynamic_energy,
        acct.peak_rate,
        acct.capacity_violations,
        acct.max_resident,
        acct.last_segment_end,
        acct.active_links,
    )


def assert_same_accounting(acct: WindowAccountant, heap: HeapAccountant):
    assert acct.dynamic_energy == heap.dynamic_energy
    assert acct.peak_rate == heap.peak_rate
    assert acct.capacity_violations == heap.capacity_violations
    assert acct.max_resident == heap.max_resident
    assert acct.cur_rate.tolist() == heap.cur_rate
    assert acct.last_t.tolist() == heap.last_t
    live = sorted(zip(*(column.tolist() for column in acct.pieces)))
    assert live == sorted(tuple(p) for p in heap.pieces)


FT4 = fat_tree(4)
POWERS = [
    PowerModel(sigma=0.0, mu=1.0, alpha=2.0, capacity=2.5),
    PowerModel(sigma=0.0, mu=0.7, alpha=3.0, capacity=4.0),
]
#: Segment times and cuts sit on a quarter grid, so events, cuts and
#: finalize boundaries coincide often.
GRID = 0.25


def _schedule(data, i: int, clock: float) -> FlowSchedule:
    hosts = FT4.hosts
    src, dst = data.draw(
        st.lists(st.sampled_from(hosts), min_size=2, max_size=2, unique=True)
    )
    n_seg = data.draw(st.integers(1, 3))
    offsets = sorted(
        data.draw(
            st.lists(
                st.integers(0, 24),
                min_size=2 * n_seg,
                max_size=2 * n_seg,
                unique=True,
            )
        )
    )
    times = [clock + GRID * k for k in offsets]
    rates = data.draw(
        st.lists(
            st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0, 0.1]),
            min_size=n_seg,
            max_size=n_seg,
        )
    )
    segments = tuple(
        Segment(times[2 * j], times[2 * j + 1], rates[j]) for j in range(n_seg)
    )
    volume = sum(seg.volume for seg in segments)
    flow = Flow(
        id=f"f{i}", src=src, dst=dst, size=volume,
        release=times[0], deadline=times[-1],
    )
    return FlowSchedule(flow, FT4.shortest_path(src, dst), segments)


class TestSweepMatchesHeap:
    @settings(max_examples=80, deadline=None)
    @given(
        power=st.sampled_from(POWERS),
        grid_cells=st.sampled_from([0, WindowAccountant._GRID_CELLS]),
        data=st.data(),
    )
    def test_bit_identical_to_heap(self, power, grid_cells, data):
        acct = WindowAccountant(FT4, power)
        acct._GRID_CELLS = grid_cells
        heap = HeapAccountant(FT4, power)
        live: list[FlowSchedule] = []  # commitments as truncated so far
        clock = 0.0  # last finalize boundary
        for step in range(data.draw(st.integers(1, 6))):
            for _ in range(data.draw(st.integers(0, 4))):
                fs = _schedule(data, len(live), clock)
                assert acct.commit(fs) == tuple(heap._route(fs.path))
                heap.commit(fs)
                live.append(fs)
            if live and data.draw(st.booleans()):
                idx = data.draw(st.integers(0, len(live) - 1))
                fs = live[idx]
                if fs.segments and fs.segments[-1].end > clock:
                    # Partial or full: the cut may fall before, inside or
                    # on a segment boundary, never at or before ``clock``.
                    cut = clock + GRID * data.draw(st.integers(1, 24))
                    got = acct.truncate_commit(fs.path, fs.segments, cut)
                    assert got == heap.truncate_commit(
                        fs.path, fs.segments, cut
                    )
                    live[idx] = FlowSchedule(
                        fs.flow,
                        fs.path,
                        tuple(
                            seg
                            if seg.end <= cut
                            else Segment(seg.start, cut, seg.rate)
                            for seg in fs.segments
                            if seg.start < cut
                        ),
                    )
            clock += GRID * data.draw(st.integers(1, 8))
            acct.finalize(clock)
            heap.finalize(clock)
            assert_same_accounting(acct, heap)
            if data.draw(st.booleans()):
                restored = pickle.loads(pickle.dumps(acct))
                assert accounting_state(restored) == accounting_state(acct)
                acct = restored
        while acct.has_live:
            clock += 1.0
            acct.finalize(clock)
            heap.finalize(clock)
        acct.drain()
        heap.drain()
        assert_same_accounting(acct, heap)
        assert not heap.events

    def test_busy_edge_sweeps_in_time_slices(self):
        """A fan-in burst puts most events on one edge, which would pad
        every row of the sweep grid to its length: the sweep splits the
        batch at a time instead, and stays bit-identical to the heap."""
        topology = star(200)
        power = PowerModel.quadratic(capacity=3.0)
        acct = WindowAccountant(topology, power)
        heap = HeapAccountant(topology, power)
        rng = np.random.default_rng(3)
        for i in range(1000):
            dst = f"h{1 + int(rng.integers(199))}"
            start = float(rng.uniform(0.0, 4.0))
            seg = Segment(start, start + float(rng.uniform(0.1, 4.0)), 0.5)
            flow = Flow(id=i, src="h0", dst=dst, size=seg.volume,
                        release=seg.start, deadline=seg.end)
            fs = FlowSchedule(flow, ("h0", "hub", dst), (seg,))
            acct.commit(fs)
            heap.commit(fs)
        batches = []
        settle = acct._settle

        def counted(t, eid, delta):
            batches.append(len(t))
            settle(t, eid, delta)

        acct._settle = counted
        acct.finalize(10.0)
        heap.finalize(10.0)
        # 200 rows padded to the busy edge's 2000 events would be 400k
        # cells for 4000 events.
        assert len(batches) > 1
        assert_same_accounting(acct, heap)
        assert acct.capacity_violations > 0

    def test_truncating_a_finalized_piece_raises(self):
        acct = WindowAccountant(FT4, POWERS[0])
        path = FT4.shortest_path(FT4.hosts[0], FT4.hosts[1])
        seg = Segment(0.0, 1.0, 1.0)
        acct.commit(FlowSchedule(
            Flow(id="f", src=path[0], dst=path[-1], size=1.0,
                 release=0.0, deadline=1.0),
            path, (seg,),
        ))
        acct.finalize(1.0)
        with pytest.raises(ValidationError, match="no live piece"):
            acct.truncate_commit(path, (Segment(0.0, 2.0, 1.0),), 1.5)
