"""Mid-replay fault injection and self-healing replay.

Covers the fault subsystem end to end: seeded/scripted
:class:`~repro.sim.churn.FaultSchedule` construction and its trace-store
round trip, the :class:`~repro.traces.replay.WindowAccountant`
truncation primitive, committed-flow repair in the single-owner engine
(classification, honest accounting, the greedy repair order), fault-aware
routing in every replay policy, and the sharded service's crash
tolerance (worker kill -> restart -> resubmit with zero committed flows
lost, plus snapshot/restore taken *between* a link failure and its
recovery).
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import pickle
import time

import networkx as nx
import pytest

from repro.errors import ValidationError
from repro.experiments.parallel import WorkerCrash, WorkerGroup
from repro.flows import Flow
from repro.power import PowerModel
from repro.scheduling.schedule import FlowSchedule, Segment
from repro.service import ReplayService, ShardedReplayEngine
from repro.sim import (
    FailureDomain,
    FaultEvent,
    FaultSchedule,
    survivor_shortest_path,
)
from repro.sim.churn import survivor_topology
from repro.topology import fat_tree, line, parallel_paths
from repro.topology.base import path_edges
from repro.traces import (
    ChurnManager,
    EpochDcfsPolicy,
    GreedyDensityPolicy,
    LeastLoadedPolicy,
    OnlineDensityPolicy,
    PowerOfTwoPolicy,
    RelaxationRoundingPolicy,
    ReplayEngine,
    WindowAccountant,
    read_trace_faults,
    read_trace_jsonl,
    write_trace_jsonl,
)
from repro.traces.store import TraceReader


def _cross_pod_flows(topology, n=6, release0=0.5, gap=0.1, slack=10.0):
    """n identical-endpoint flows between hosts in different pods."""
    h1, h2 = topology.hosts[0], topology.hosts[-1]
    return [
        Flow(
            id=f"f{i}",
            src=h1,
            dst=h2,
            size=2.0,
            release=release0 + gap * i,
            deadline=release0 + gap * i + slack,
        )
        for i in range(n)
    ]


def _middle_edge(topology, path):
    """A switch-to-switch edge from the middle of ``path``."""
    edges = path_edges(path)
    return edges[len(edges) // 2]


# ---------------------------------------------------------------------------
# FaultSchedule construction and validation.
# ---------------------------------------------------------------------------
class TestFaultSchedule:
    def test_scripted_shorthand(self):
        fs = FaultSchedule.scripted(
            [(1.0, "down", ("a", "b")), (2.0, "up", ("a", "b")),
             (3.0, "crash", 1)]
        )
        assert [e.kind for e in fs] == ["link_down", "link_up",
                                       "worker_crash"]
        assert len(fs.link_events()) == 2
        assert fs.worker_events()[0].shard == 1

    def test_double_down_rejected(self):
        with pytest.raises(ValidationError):
            FaultSchedule.scripted(
                [(1.0, "down", ("a", "b")), (2.0, "down", ("a", "b"))]
            )

    def test_up_without_down_rejected(self):
        with pytest.raises(ValidationError):
            FaultSchedule.scripted([(1.0, "up", ("a", "b"))])

    def test_domain_double_down_rejected(self, ft4):
        """Same-source overlap has no well-defined pairing: a second
        switch_down before the matching switch_up is rejected."""
        sw = FailureDomain.switch(ft4, ft4.switches[0])
        with pytest.raises(ValidationError):
            FaultSchedule.scripted(
                [(1.0, "down", sw), (2.0, "down", sw)]
            )
        with pytest.raises(ValidationError):
            FaultSchedule.scripted([(1.0, "up", sw)])

    def test_srlg_up_member_mismatch_rejected(self, ft4):
        e1, e2 = ft4.edges[5], ft4.edges[6]
        down = FailureDomain.srlg("g", [e1, e2]).down_event(1.0)
        up = FailureDomain.srlg("g", [e1]).up_event(2.0)
        with pytest.raises(ValidationError):
            FaultSchedule([down, up])

    def test_cross_source_overlap_validates(self, ft4):
        """Overlap across sources is legal: a raw link_down on an edge
        already covered by a down switch domain is a distinct outage,
        not a double-down."""
        node = ft4.switches[0]
        sw = FailureDomain.switch(ft4, node)
        edge = sw.edges[0]
        fs = FaultSchedule.scripted(
            [
                (1.0, "down", sw),
                (2.0, "down", edge),
                (3.0, "up", sw),
                (4.0, "up", edge),
            ]
        )
        assert len(fs.events) == 4
        # The per-link union counts the overlapped edge once while both
        # outages cover it: members of sw for [1,3), plus the raw edge
        # alone for [3,4).
        downtime = fs.link_downtime(ft4, 10.0)
        assert downtime == pytest.approx(len(sw.edges) * 2.0 + 1.0)

    def test_generate_deterministic(self, ft4):
        a = FaultSchedule.generate(ft4, rate=0.5, duration=20.0, seed=3)
        b = FaultSchedule.generate(ft4, rate=0.5, duration=20.0, seed=3)
        assert a.events == b.events
        c = FaultSchedule.generate(ft4, rate=0.5, duration=20.0, seed=4)
        assert a.events != c.events

    def test_generate_connectivity_safe(self, ft4):
        """Every prefix of the schedule leaves all hosts connected."""
        fs = FaultSchedule.generate(ft4, rate=1.0, duration=20.0, seed=1)
        assert len(fs.link_events()) > 0
        graph = ft4.graph.copy()
        hosts = set(ft4.hosts)
        for event in fs.link_events():
            if event.kind == "link_down":
                graph.remove_edge(*event.edge)
                assert event.edge[0] not in hosts
                assert event.edge[1] not in hosts
            else:
                graph.add_edge(*event.edge)
            assert nx.is_connected(graph)

    def test_record_round_trip(self):
        fs = FaultSchedule.scripted(
            [(1.5, "down", ("a", "b")), (2.5, "up", ("a", "b")),
             (4.0, "crash", 0)]
        )
        back = FaultSchedule(
            FaultEvent.from_record(e.to_record()) for e in fs
        )
        assert back.events == fs.events


class TestStoreRoundTrip:
    def test_faults_interleave_and_round_trip(self, ft4, tmp_path):
        flows = _cross_pod_flows(ft4, n=4)
        fs = FaultSchedule.scripted(
            [(0.55, "down", ft4.edges[0]), (0.75, "up", ft4.edges[0])]
        )
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(flows, path, faults=fs)

        # Default readers skip fault records entirely.
        assert [f.id for f in read_trace_jsonl(path)] == [
            f.id for f in flows
        ]
        # include_faults interleaves them in time order.
        items = list(read_trace_jsonl(path, include_faults=True))
        kinds = [type(i).__name__ for i in items]
        assert kinds.count("FaultEvent") == 2
        times = [
            i.time if isinstance(i, FaultEvent) else i.release
            for i in items
        ]
        assert times == sorted(times)
        # read_trace_faults collects just the schedule.
        assert read_trace_faults(path).events == fs.events
        # TraceReader agrees with the module-level reader.
        with TraceReader(path, include_faults=True) as reader:
            assert sum(
                isinstance(i, FaultEvent) for i in reader
            ) == 2


# ---------------------------------------------------------------------------
# The truncation primitive.
# ---------------------------------------------------------------------------
class TestTruncateCommit:
    def _committed(self, power):
        topo = line(3)
        acct = WindowAccountant(topo, power, tol=1e-6)
        flow = Flow(
            id="x", src="n0", dst="n2", size=4.0, release=0.0, deadline=4.0
        )
        fs = FlowSchedule(
            flow=flow,
            path=("n0", "n1", "n2"),
            segments=(Segment(start=0.0, end=4.0, rate=1.0),),
        )
        acct.commit(fs)
        return acct, fs

    def test_partial_cut_exact_energy(self):
        """Hand check: rate 1, alpha 2, mu 1, 2 edges, cut at t=2.

        Removed volume = 1 * (4 - 2) = 2; removed standalone energy =
        mu * rate^alpha * 2s * 2 edges = 4; the sweep then charges only
        the surviving [0, 2) prefix: 4 energy units.
        """
        power = PowerModel(mu=1.0, alpha=2.0)
        acct, fs = self._committed(power)
        removed_volume, removed_energy = acct.truncate_commit(
            fs.path, fs.segments, 2.0
        )
        assert removed_volume == pytest.approx(2.0)
        assert removed_energy == pytest.approx(4.0)
        acct.finalize(10.0)
        assert acct.dynamic_energy == pytest.approx(4.0)

    def test_full_drop_cancels_exactly(self):
        power = PowerModel(mu=1.0, alpha=2.0)
        acct, fs = self._committed(power)
        removed_volume, removed_energy = acct.truncate_commit(
            fs.path, fs.segments, 0.0
        )
        assert removed_volume == pytest.approx(4.0)
        assert removed_energy == pytest.approx(8.0)
        acct.finalize(10.0)
        assert acct.dynamic_energy == pytest.approx(0.0)

    def test_cut_beyond_commit_is_noop(self):
        power = PowerModel(mu=1.0, alpha=2.0)
        acct, fs = self._committed(power)
        removed_volume, removed_energy = acct.truncate_commit(
            fs.path, fs.segments, 5.0
        )
        assert removed_volume == 0.0
        assert removed_energy == 0.0
        acct.finalize(10.0)
        assert acct.dynamic_energy == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# Survivor routing helpers.
# ---------------------------------------------------------------------------
class TestSurvivorHelpers:
    def test_survivor_path_avoids_down(self, ft4):
        h1, h2 = ft4.hosts[0], ft4.hosts[-1]
        nominal = ft4.shortest_path(h1, h2)
        dead = _middle_edge(ft4, nominal)
        down = {ft4.edge_id(dead)}
        path = survivor_shortest_path(ft4, down, h1, h2)
        assert dead not in path_edges(path)
        assert tuple(sorted(dead)) not in [
            tuple(sorted(e)) for e in path_edges(path)
        ]

    def test_survivor_path_matches_bfs_when_empty(self, ft4):
        h1, h2 = ft4.hosts[0], ft4.hosts[-1]
        assert survivor_shortest_path(ft4, set(), h1, h2) == (
            ft4.shortest_path(h1, h2)
        )

    def test_survivor_topology_edge_map(self, ft4):
        down = {0, 3}
        survivor, edge_map = survivor_topology(ft4, down)
        assert survivor.num_edges == ft4.num_edges - 2
        for local, parent in enumerate(edge_map):
            assert ft4.edges[parent] == survivor.edges[local]
            assert int(parent) not in down


# ---------------------------------------------------------------------------
# Single-owner engine: empty schedule is bit-identical.
# ---------------------------------------------------------------------------
class TestEmptyScheduleIdentity:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            GreedyDensityPolicy,
            OnlineDensityPolicy,
            lambda: RelaxationRoundingPolicy(seed=0),
        ],
        ids=["greedy", "online", "relax"],
    )
    def test_single_owner_bit_identical(self, ft4, policy_factory):
        flows = _cross_pod_flows(ft4)
        base = ReplayEngine(
            ft4, PowerModel.quadratic(), policy_factory(), window=1.0
        ).run(list(flows))
        empty = ReplayEngine(
            ft4,
            PowerModel.quadratic(),
            policy_factory(),
            window=1.0,
            faults=FaultSchedule(),
        ).run(list(flows))
        assert base == empty


# ---------------------------------------------------------------------------
# Single-owner engine: scripted failures and repair.
# ---------------------------------------------------------------------------
class TestMidReplayRepair:
    def test_repairable_flows_survive_core_failure(self):
        """fat_tree(8): a mid-replay switch-link failure reroutes every
        affected flow, recovers by the window boundary, and attributes
        zero misses — full volume still delivered."""
        topo = fat_tree(8)
        power = PowerModel.quadratic()
        flows = _cross_pod_flows(topo, n=6, slack=10.0)
        dead = _middle_edge(
            topo, topo.shortest_path(flows[0].src, flows[0].dst)
        )
        faults = FaultSchedule.scripted(
            [(1.6, "down", dead), (5.3, "up", dead)]
        )
        baseline = ReplayEngine(
            topo, power, GreedyDensityPolicy(), window=1.0
        ).run(list(flows))
        report = ReplayEngine(
            topo,
            power,
            GreedyDensityPolicy(),
            window=1.0,
            faults=faults,
            keep_schedules=True,
        ).run(list(flows))

        assert report.link_failures == 1
        assert report.link_recoveries == 1
        assert report.flows_rerouted == len(flows)
        # Windows are anchored at the first release (0.5), so the event
        # at 1.6 recommits at the 2.5 boundary.
        assert report.time_to_recover == pytest.approx(2.5 - 1.6)
        assert report.misses_attributed_to_failure == 0
        assert report.deadline_misses == 0
        # Repair is a delivered-volume no-op for repairable flows.
        assert report.volume_delivered == pytest.approx(
            baseline.volume_delivered
        )
        assert report.flows_served == baseline.flows_served
        # Rerouting longer paths costs energy; the delta is accounted.
        assert report.repair_energy_delta > 0
        assert report.capacity_violations == 0

    def test_doomed_flow_attributed_honestly(self, ft4):
        """Killing a host's only uplink dooms its in-flight flow: the
        lost volume is deducted and the miss attributed to the failure."""
        power = PowerModel.quadratic()
        host = ft4.hosts[0]
        uplink = next(
            e for e in ft4.edges if host in e
        )
        flow = Flow(
            id="doomed", src=host, dst=ft4.hosts[-1],
            size=4.0, release=0.0, deadline=4.0,
        )
        faults = FaultSchedule.scripted([(1.5, "down", uplink)])
        report = ReplayEngine(
            ft4, power, GreedyDensityPolicy(), window=1.0, faults=faults
        ).run([flow])
        assert report.misses_attributed_to_failure == 1
        assert report.deadline_misses == 1
        assert report.flows_rerouted == 0
        # Volume delivered = only what physically transmitted before the
        # link died at t=1.5 (rate 1 from release 0).
        assert report.volume_delivered == pytest.approx(1.5)

    def test_repairs_run_most_urgent_first(self):
        """Displaced flows repair one at a time, most urgent first, so
        the urgent flow takes the cheapest survivor path and the relaxed
        one routes around the load it left."""
        topo = parallel_paths(3)
        flows = [
            Flow(id="relaxed", src="src", dst="dst",
                 size=1.0, release=0.0, deadline=20.0),
            Flow(id="urgent", src="src", dst="dst",
                 size=8.0, release=0.1, deadline=4.0),
        ]
        faults = FaultSchedule.scripted([(0.5, "down", ("m000", "src"))])
        report = ReplayEngine(
            topo, PowerModel.quadratic(), GreedyDensityPolicy(),
            window=1.0, faults=faults, keep_schedules=True,
        ).run(flows)
        assert [fs.path for fs in report.schedules[:2]] == [
            ("src", "m000", "dst")
        ] * 2
        repairs = {fs.flow.id: fs.path for fs in report.schedules[2:]}
        assert repairs == {
            "urgent": ("src", "m001", "dst"),
            "relaxed": ("src", "m002", "dst"),
        }

    def test_inline_events_match_ctor_schedule(self, ft4):
        """FaultEvents interleaved in the trace stream == the same
        schedule passed at construction."""
        power = PowerModel.quadratic()
        flows = _cross_pod_flows(ft4, n=5, slack=8.0)
        dead = _middle_edge(
            ft4, ft4.shortest_path(flows[0].src, flows[0].dst)
        )
        events = [
            FaultEvent(time=1.6, kind="link_down", edge=dead),
            FaultEvent(time=5.0, kind="link_up", edge=dead),
        ]
        via_ctor = ReplayEngine(
            ft4, power, GreedyDensityPolicy(), window=1.0,
            faults=FaultSchedule(events),
        ).run(list(flows))
        mixed: list = []
        pending = list(events)
        for flow in flows:
            while pending and pending[0].time <= flow.release:
                mixed.append(pending.pop(0))
            mixed.append(flow)
        mixed.extend(pending)
        via_stream = ReplayEngine(
            ft4, power, GreedyDensityPolicy(), window=1.0
        ).run(mixed)
        assert via_ctor == via_stream

    def test_sliver_cut_leaves_registry(self, ft4):
        """A flow within ``tol`` of done when its link dies is complete,
        not live: it leaves the registry instead of lingering there."""
        power = PowerModel.quadratic()
        acct = WindowAccountant(ft4, power, tol=1e-6)
        churn = ChurnManager(ft4, power, acct, origin=0.0, window=1.0)
        h1, h2 = ft4.hosts[0], ft4.hosts[-1]
        path = ft4.shortest_path(h1, h2)
        flow = Flow(id="f", src=h1, dst=h2, size=10.0, release=0.0,
                    deadline=10.0)
        fs = FlowSchedule(flow, path, (Segment(0.0, 10.0, 1.0),))
        acct.commit(fs)
        churn.register(flow, fs, missed=False)
        churn.add_events((FaultEvent(
            time=10.0 - 1e-9, kind="link_down", edge=path_edges(path)[0]
        ),))
        churn.apply_upto(11.0)
        assert churn.flows_rerouted == 0
        assert churn.misses_attributed == 0
        assert churn.snapshot_state()["live"] == []

    def test_late_event_rejected(self, ft4):
        """An event behind the settled frontier is a hard error."""
        power = PowerModel.quadratic()
        churn = ChurnManager(
            ft4, power, WindowAccountant(ft4, power, tol=1e-6),
            origin=0.0, window=1.0,
        )
        churn.apply_upto(5.0)
        with pytest.raises(ValidationError):
            churn.add_events(
                (FaultEvent(time=2.0, kind="link_down", edge=ft4.edges[0]),)
            )


# ---------------------------------------------------------------------------
# Every policy routes around dead links.
# ---------------------------------------------------------------------------
class TestPolicyFaultAwareness:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            GreedyDensityPolicy,
            lambda: PowerOfTwoPolicy(seed=0),
            LeastLoadedPolicy,
            OnlineDensityPolicy,
            EpochDcfsPolicy,
            lambda: RelaxationRoundingPolicy(seed=0),
        ],
        ids=["greedy", "po2", "least-loaded", "online", "epoch-dcfs",
             "relax"],
    )
    def test_no_schedule_crosses_dead_link(self, ft4, policy_factory):
        """With a link down before the first arrival, no committed path
        may cross it — for every policy."""
        power = PowerModel.quadratic()
        flows = _cross_pod_flows(ft4, n=6, slack=8.0)
        nominal = ft4.shortest_path(flows[0].src, flows[0].dst)
        dead = _middle_edge(ft4, nominal)
        faults = FaultSchedule.scripted([(0.0, "down", dead)])
        report = ReplayEngine(
            ft4,
            power,
            policy_factory(),
            window=1.0,
            faults=faults,
            keep_schedules=True,
        ).run(list(flows))
        assert report.schedules, "policy served nothing"
        dead_norm = tuple(sorted(dead))
        for fs in report.schedules:
            assert dead_norm not in [
                tuple(sorted(e)) for e in path_edges(fs.path)
            ], f"{fs.flow.id} routed over the dead link"
        assert report.flows_served + report.unserved == len(flows)


# ---------------------------------------------------------------------------
# A fault inside a quiet gap settles in its own window.
# ---------------------------------------------------------------------------
class TestQuietGapFault:
    @pytest.mark.parametrize(
        "sharded", [False, True], ids=["inline", "sharded"]
    )
    def test_event_settles_before_later_window(self, ft4, powerdown, sharded):
        """f0 is done by t=0.5, a link on f1's shortest path dies at t=5,
        and f1 arrives at t=10.  The skip over the quiet windows must stop
        at the event's window: f1 is then routed around the dead link,
        instead of across it and "repaired" from before its release."""
        src, dst = ft4.hosts[0], ft4.hosts[-1]
        dead = _middle_edge(ft4, ft4.shortest_path(src, dst))
        flows = [
            Flow(id="f0", src=src, dst=dst, size=0.5,
                 release=0.0, deadline=0.5),
            Flow(id="f1", src=src, dst=dst, size=4.0,
                 release=10.0, deadline=14.0),
        ]
        faults = FaultSchedule.scripted([(5.0, "down", dead)])
        if sharded:
            with ShardedReplayEngine(
                ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
                keep_schedules=True, faults=faults,
            ) as engine:
                report = engine.run(iter(flows))
        else:
            report = ReplayEngine(
                ft4, powerdown, GreedyDensityPolicy(), window=1.0,
                keep_schedules=True, faults=faults,
            ).run(iter(flows))
        assert report.link_failures == 1
        assert all(fs.within_span() for fs in report.schedules)
        late = [fs for fs in report.schedules if fs.flow.id == "f1"]
        assert late
        for fs in late:
            assert dead not in path_edges(fs.path)
        assert report.flows_rerouted == 0
        assert report.deadline_misses == 0


# ---------------------------------------------------------------------------
# ChurnManager snapshot plumbing.
# ---------------------------------------------------------------------------
class TestChurnManagerSnapshot:
    def test_round_trip_preserves_state(self, ft4):
        power = PowerModel.quadratic()
        acct = WindowAccountant(ft4, power, tol=1e-6)
        churn = ChurnManager(ft4, power, acct, origin=0.0, window=1.0)
        dead = ft4.edges[5]
        churn.add_events((
            FaultEvent(time=0.5, kind="link_down", edge=dead),
            FaultEvent(time=3.5, kind="link_up", edge=dead),
        ))
        flow = Flow(
            id="f", src=ft4.hosts[0], dst=ft4.hosts[-1],
            size=2.0, release=0.2, deadline=6.0,
        )
        fs = FlowSchedule(
            flow=flow,
            path=ft4.shortest_path(flow.src, flow.dst),
            segments=(Segment(start=0.2, end=6.0, rate=2.0 / 5.8),),
        )
        acct.commit(fs)
        churn.register(flow, fs, missed=False)
        churn.apply_upto(1.0)
        acct.finalize(1.0)

        state = pickle.loads(pickle.dumps(churn.snapshot_state()))
        restored = ChurnManager(
            ft4, power, acct, origin=0.0, window=1.0
        )
        restored.restore_state(state)
        assert restored.down == churn.down
        assert restored.epoch == churn.epoch
        assert restored.has_pending == churn.has_pending
        assert restored.link_downs == churn.link_downs
        assert restored.flows_rerouted == churn.flows_rerouted
        assert restored.down_key() == churn.down_key()

    def test_overlap_counted_multiplicity(self, ft4):
        """A link covered by a down domain *and* a raw link_down stays
        dead until every covering outage lifts."""
        power = PowerModel.quadratic()
        churn = ChurnManager(
            ft4, power, WindowAccountant(ft4, power, tol=1e-6),
            origin=0.0, window=1.0,
        )
        node = ft4.switches[0]
        sw = FailureDomain.switch(ft4, node)
        edge = sw.edges[0]
        eid = ft4.edge_id(edge)
        churn.add_events(
            FaultSchedule.scripted(
                [
                    (0.5, "down", edge),
                    (1.5, "down", sw),
                    (2.5, "up", edge),
                    (3.5, "up", sw),
                ]
            ).fabric_events()
        )
        churn.apply_upto(1.0)
        assert churn.down == {eid}
        churn.apply_upto(2.0)
        assert churn.down == set(sw.member_edge_ids(ft4))
        assert node in churn.down_switches
        # The raw recovery lifts one cover; the switch outage still
        # holds the link down.
        churn.apply_upto(3.0)
        assert eid in churn.down
        churn.apply_upto(4.0)
        assert churn.down == set()
        assert churn.down_switches == frozenset()
        # Counters track *physical* 0<->1 transitions, not covering
        # events: the switch's cover of the already-down edge is not a
        # second failure, and the raw up under the switch outage is not
        # a recovery.
        assert churn.link_downs == len(sw.edges)
        assert churn.link_ups == len(sw.edges)
        assert churn.domain_failures == 1
        assert churn.domain_recoveries == 1

    def test_multi_link_mid_outage_round_trip(self, ft4):
        """Satellite pin: snapshot with several links concurrently down
        under overlapping outages restores the exact per-link counts, so
        the eventual recoveries resurrect exactly the right links."""
        power = PowerModel.quadratic()
        acct = WindowAccountant(ft4, power, tol=1e-6)
        churn = ChurnManager(ft4, power, acct, origin=0.0, window=1.0)
        node = ft4.switches[0]
        sw = FailureDomain.switch(ft4, node)
        edge = sw.edges[0]
        extra = next(
            e for e in ft4.edges
            if e not in sw.edges and not set(e) & set(ft4.hosts)
        )
        events = FaultSchedule.scripted(
            [
                (0.5, "down", edge),
                (1.2, "down", sw),
                (1.7, "down", extra),
                (2.5, "up", edge),
                (3.5, "up", sw),
                (4.5, "up", extra),
            ]
        ).fabric_events()
        churn.add_events(events)
        churn.apply_upto(2.0)  # mid-outage: everything is down
        assert len(churn.down) == len(sw.edges) + 1

        state = pickle.loads(pickle.dumps(churn.snapshot_state()))
        restored = ChurnManager(
            ft4, power, acct, origin=0.0, window=1.0
        )
        restored.restore_state(state)
        assert restored.down == churn.down
        assert restored.down_switches == churn.down_switches
        # Drain the recoveries on both: they must agree at every step.
        for upto in (3.0, 4.0, 5.0):
            churn.apply_upto(upto)
            restored.apply_upto(upto)
            assert restored.down == churn.down
            assert restored.down_switches == churn.down_switches
        assert restored.down == set()
        assert restored.domain_recoveries == churn.domain_recoveries


# ---------------------------------------------------------------------------
# Sharded service: crash tolerance.
# ---------------------------------------------------------------------------
def _normalized(report):
    """Zero the wall-clock solve timings (everything else kept)."""
    stats = None
    if report.shard_stats is not None:
        stats = tuple(
            dataclasses.replace(s, solve_s=0.0) for s in report.shard_stats
        )
    return dataclasses.replace(report, shard_stats=stats)


def _poisson_flows(topology, n=60, seed=11):
    import numpy as np

    rng = np.random.default_rng(seed)
    hosts = list(topology.hosts)
    flows = []
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(0.25))
        src, dst = (
            hosts[int(j)] for j in rng.choice(len(hosts), 2, replace=False)
        )
        flows.append(
            Flow(
                id=f"p{i}", src=src, dst=dst,
                size=float(rng.uniform(0.5, 2.0)), release=t,
                deadline=t + float(rng.uniform(3.0, 6.0)),
            )
        )
    return flows


class TestShardedChurn:
    def test_empty_schedule_bit_identical(self, ft4, powerdown):
        flows = _poisson_flows(ft4)
        def run(**kw):
            with ShardedReplayEngine(
                ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
                **kw,
            ) as engine:
                return engine.run(iter(flows))
        assert _normalized(run()) == _normalized(
            run(faults=FaultSchedule())
        )

    def test_link_failure_accounted(self, ft4, powerdown):
        flows = _poisson_flows(ft4)
        dead = _middle_edge(
            ft4, ft4.shortest_path(ft4.hosts[0], ft4.hosts[-1])
        )
        faults = FaultSchedule.scripted(
            [(2.0, "down", dead), (7.0, "up", dead)]
        )
        with ShardedReplayEngine(
            ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
            faults=faults,
        ) as engine:
            report = engine.run(iter(flows))
        assert report.link_failures == 1
        assert report.link_recoveries == 1
        assert report.capacity_violations == 0

    def test_injected_worker_kill_loses_no_flows(self, ft4, powerdown):
        """The acceptance gate: kill a worker mid-replay; the restarted
        shard resubmits its in-flight windows and the report matches the
        unkilled run on every service-level field."""
        flows = _poisson_flows(ft4)
        with ShardedReplayEngine(
            ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
        ) as engine:
            baseline = engine.run(iter(flows))

        engine = ShardedReplayEngine(
            ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
            checkpoint_every=2,
        )
        with engine:
            for i, flow in enumerate(flows):
                engine.feed(flow)
                if i == len(flows) // 2:
                    engine.inject_worker_crash(0)
            report = engine.finish()
        assert report.worker_restarts >= 1
        assert report.flows_served == baseline.flows_served
        assert report.deadline_misses == baseline.deadline_misses
        assert report.volume_delivered == pytest.approx(
            baseline.volume_delivered
        )
        assert report.unserved == baseline.unserved

    def test_scheduled_worker_crash_event(self, ft4, powerdown):
        flows = _poisson_flows(ft4)
        mid = flows[len(flows) // 2].release
        faults = FaultSchedule.scripted([(mid, "crash", 1)])
        with ShardedReplayEngine(
            ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
            faults=faults,
        ) as engine:
            report = engine.run(iter(flows))
        with ShardedReplayEngine(
            ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
        ) as engine:
            baseline = engine.run(iter(flows))
        assert report.worker_restarts >= 1
        assert report.flows_served == baseline.flows_served
        assert report.volume_delivered == pytest.approx(
            baseline.volume_delivered
        )

    def test_crash_event_shard_validated(self, ft4, powerdown):
        with ShardedReplayEngine(
            ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
        ) as engine:
            with pytest.raises(ValidationError):
                engine.feed_fault(
                    FaultEvent(time=1.0, kind="worker_crash", shard=7)
                )
            with pytest.raises(ValidationError):
                engine.inject_worker_crash(7)
        # The constructor path: rejected before any worker is forked.
        before = {p.pid for p in mp.active_children()}
        with pytest.raises(ValidationError):
            ShardedReplayEngine(
                ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
                faults=FaultSchedule.scripted([(1.0, "crash", 7)]),
            )
        leaked = {
            p.pid for p in mp.active_children() if p.is_alive()
        } - before
        assert not leaked

    def test_snapshot_registry_holds_only_live_flows(self, ft4, powerdown):
        """Fault-free, the churn registry drops each flow once its window
        settles past its completion, so a snapshot grows with the live
        set, not with the trace."""
        hosts = ft4.hosts
        flows = [
            Flow(id=i, src=hosts[i % 8], dst=hosts[8 + i % 8], size=0.2,
                 release=0.1 * i, deadline=0.1 * i + 0.5)
            for i in range(400)
        ]
        with ReplayService(
            ft4, powerdown, 1.0, num_shards=2, mode="greedy"
        ) as service:
            service.submit_many(flows)
            churn = pickle.loads(service.snapshot())["engine"]["loop"][
                "churn"
            ]
        settled = churn["applied_upto"]
        assert settled > 30.0
        assert churn["live"]
        assert all(flow.deadline > settled for flow, *_ in churn["live"])

    def test_late_worker_crash_rejected(self, ft4, powerdown):
        """A ``worker_crash`` older than the enacted kill schedule is an
        error, like a late fabric event: it must not re-enact (or skip)
        an earlier kill."""
        flows = _poisson_flows(ft4)
        split = next(i for i, f in enumerate(flows) if f.release > 5.0)
        faults = FaultSchedule.scripted([(2.5, "crash", 0)])
        with ShardedReplayEngine(
            ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
            faults=faults,
        ) as engine:
            for flow in flows[:split]:
                engine.feed(flow)
            # The t=2.5 kill of shard 0 is enacted by now.
            with pytest.raises(ValidationError, match="t=1.0"):
                engine.feed_fault(
                    FaultEvent(time=1.0, kind="worker_crash", shard=1)
                )
            for flow in flows[split:]:
                engine.feed(flow)
            report = engine.finish()
        assert report.worker_restarts == 1

    def test_snapshot_between_failure_and_recovery(self, ft4, powerdown):
        """Satellite: snapshot mid-outage; the restored run finishes
        bit-identically, including the disruption accounting."""
        flows = _poisson_flows(ft4)
        dead = _middle_edge(
            ft4, ft4.shortest_path(ft4.hosts[0], ft4.hosts[-1])
        )
        down_t = flows[len(flows) // 3].release + 0.01
        up_t = flows[2 * len(flows) // 3].release + 0.01
        faults = FaultSchedule.scripted(
            [(down_t, "down", dead), (up_t, "up", dead)]
        )

        def make():
            return ShardedReplayEngine(
                ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
                faults=faults,
            )

        with make() as engine:
            uninterrupted = engine.run(iter(flows))
        assert uninterrupted.link_failures == 1

        # Feed until the failure has applied but not yet recovered,
        # snapshot, restore, finish both from the same point.
        split = next(
            i for i, f in enumerate(flows)
            if down_t < f.release < up_t
        ) + 1
        engine = make()
        for flow in flows[:split]:
            engine.feed(flow)
        blob = pickle.dumps(engine.snapshot_state())
        restored = ShardedReplayEngine.restore_state(
            ft4, powerdown, pickle.loads(blob)
        )
        for flow in flows[split:]:
            engine.feed(flow)
            restored.feed(flow)
        original = engine.finish()
        resumed = restored.finish()
        engine.close()
        restored.close()
        assert _normalized(resumed) == _normalized(original)
        assert _normalized(resumed) == _normalized(uninterrupted)
        assert resumed.link_failures == 1
        assert resumed.link_recoveries == 1


class TestServeTraceFaults:
    def test_service_replays_inline_faults(self, ft4, powerdown, tmp_path):
        """``serve_trace`` feeds a trace's fault records to the engine:
        same report as ``run`` over ``TraceReader(include_faults=True)``,
        also across a snapshot/restore split taken after a fault record."""
        flows = _poisson_flows(ft4)
        dead = _middle_edge(
            ft4, ft4.shortest_path(ft4.hosts[0], ft4.hosts[-1])
        )
        down_t = flows[len(flows) // 3].release + 0.01
        up_t = flows[2 * len(flows) // 3].release + 0.01
        path = str(tmp_path / "faulted.jsonl")
        write_trace_jsonl(
            flows,
            path,
            faults=FaultSchedule.scripted(
                [(down_t, "down", dead), (up_t, "up", dead)]
            ),
        )
        kwargs = dict(window=1.0, num_shards=2, mode="greedy")
        with ShardedReplayEngine(ft4, powerdown, **kwargs) as engine:
            with TraceReader(path, include_faults=True) as reader:
                expected = engine.run(reader)
        assert expected.link_failures == 1

        with ReplayService(ft4, powerdown, **kwargs) as service:
            assert service.serve_trace(path) == len(flows)
            served = service.drain()
        assert _normalized(served) == _normalized(expected)

        # Split just past the down record: it has been fed, the up has not.
        split = sum(1 for f in flows if f.release < down_t) + 1
        with ReplayService(ft4, powerdown, **kwargs) as service:
            assert service.serve_trace(path, limit=split) == split
            blob = service.snapshot()
        restored = ReplayService.restore(ft4, powerdown, blob)
        with restored:
            assert restored.resume_trace() == len(flows) - split
            resumed = restored.drain()
        assert _normalized(resumed) == _normalized(expected)


class TestSnapshotBeforeFirstFlow:
    def test_constructor_faults_survive_restore(self, ft4, powerdown):
        """A snapshot taken before the first flow carries the
        constructor's fault events: the restored engine, built without
        them, still replays the outage."""
        flows = _poisson_flows(ft4)
        dead = _middle_edge(
            ft4, ft4.shortest_path(ft4.hosts[0], ft4.hosts[-1])
        )
        faults = FaultSchedule.scripted(
            [(flows[len(flows) // 3].release + 0.01, "down", dead)]
        )
        kwargs = dict(window=1.0, num_shards=2, mode="greedy")
        with ShardedReplayEngine(
            ft4, powerdown, faults=faults, **kwargs
        ) as engine:
            expected = engine.run(iter(flows))
        assert expected.link_failures == 1
        with ShardedReplayEngine(
            ft4, powerdown, faults=faults, **kwargs
        ) as engine:
            state = pickle.loads(pickle.dumps(engine.snapshot_state()))
        restored = ShardedReplayEngine.restore_state(ft4, powerdown, state)
        with restored:
            resumed = restored.run(iter(flows))
        assert _normalized(resumed) == _normalized(expected)


class TestCloseHardening:
    def test_close_idempotent(self, ft4, powerdown):
        engine = ShardedReplayEngine(
            ft4, powerdown, window=1.0, num_shards=2, mode="greedy"
        )
        engine.run(iter(_poisson_flows(ft4, n=10)))
        engine.close()
        engine.close()  # second close is a no-op, not an error

    def test_exit_reaps_workers_after_midstream_error(self, ft4, powerdown):
        before = {p.pid for p in mp.active_children()}
        with pytest.raises(RuntimeError, match="boom"):
            with ShardedReplayEngine(
                ft4, powerdown, window=1.0, num_shards=2, mode="greedy"
            ) as engine:
                engine.feed(
                    Flow(id="f", src=ft4.hosts[0], dst=ft4.hosts[1],
                         size=1.0, release=0.0, deadline=2.0)
                )
                raise RuntimeError("boom")
        deadline = time.time() + 5.0
        while time.time() < deadline:
            leaked = {
                p.pid for p in mp.active_children() if p.is_alive()
            } - before
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked

    def test_worker_group_partial_init_cleanup(self):
        if mp.get_start_method() != "fork":
            pytest.skip("fork-mode worker cleanup test")
        before = {p.pid for p in mp.active_children()}

        def factory(index):
            if index == 1:
                raise RuntimeError("factory boom")
            return lambda msg: msg

        with pytest.raises(Exception):
            WorkerGroup(factory, 2)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            leaked = {
                p.pid for p in mp.active_children() if p.is_alive()
            } - before
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked

    def test_kill_then_collect_raises_worker_crash(self):
        group = WorkerGroup(lambda i: (lambda msg: msg * 2), 2)
        try:
            group.submit(0, 21)
            group.kill(0)
            with pytest.raises(WorkerCrash):
                group.collect(0, timeout=2.0)
            group.restart(0)
            group.submit(0, 21)
            assert group.collect(0) == 42
        finally:
            group.close()

    def test_heartbeat_timeout_raises_worker_crash(self):
        if mp.get_start_method() != "fork":
            pytest.skip("timeout applies to fork-mode pipes")

        def factory(index):
            def handler(msg):
                time.sleep(10.0)
                return msg
            return handler

        group = WorkerGroup(factory, 1)
        try:
            group.submit(0, "slow")
            with pytest.raises(WorkerCrash):
                group.collect(0, timeout=0.2)
        finally:
            group.close()
