"""Correlated failure domains: SRLG expansion, partition tolerance, and
SRLG-diverse repair.

Property suite for the domain event kinds (``switch_down``/``switch_up``,
``srlg_down``/``srlg_up``): atomic multi-link expansion, per-member
down/up pairing, stable ordering at equal timestamps, and the trace-store
round trip.  Then the partition acceptance scenario — a whole-switch
outage that disconnects fat_tree(8) hosts must replay to completion
under every policy with honest attribution — plus the sharded service's
dark-shard evacuation and mid-outage restore, and the deterministic
conduit pin showing SRLG-diverse repair dodging the risk group that
SRLG-blind repair lands on.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.experiments.ablations import uplink_conduits
from repro.flows import Flow
from repro.power import PowerModel
from repro.service import ReplayService
from repro.sim import FailureDomain, FaultEvent, FaultSchedule
from repro.topology import fat_tree
from repro.topology.base import canonical_edge, path_edges
from repro.traces import (
    EpochDcfsPolicy,
    GreedyDensityPolicy,
    LeastLoadedPolicy,
    OnlineDensityPolicy,
    PowerOfTwoPolicy,
    RelaxationRoundingPolicy,
    ReplayEngine,
    read_trace_faults,
    write_trace_jsonl,
)

ALL_POLICIES = (
    GreedyDensityPolicy,
    PowerOfTwoPolicy,
    LeastLoadedPolicy,
    OnlineDensityPolicy,
    EpochDcfsPolicy,
    RelaxationRoundingPolicy,
)

FT4 = fat_tree(4)
_HOSTS = set(FT4.hosts)
#: Switch-to-switch edges — valid SRLG members on fat_tree(4).
SWITCH_EDGES = tuple(e for e in FT4.edges if not set(e) & _HOSTS)

member_sets = st.lists(
    st.sampled_from(SWITCH_EDGES), min_size=1, max_size=6, unique=True
)
times = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
gaps = st.floats(
    min_value=0.125, max_value=10.0, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# SRLG event expansion properties.
# ---------------------------------------------------------------------------
def _per_link(event, kind):
    """``event`` as one raw ``kind`` event per member link, all at its
    timestamp (the atomic multi-link outage a domain event denotes)."""
    return tuple(
        FaultEvent(time=event.time, kind=kind, edge=edge)
        for edge in event.member_edges(FT4)
    )


class TestDomainExpansion:
    @settings(max_examples=60, deadline=None)
    @given(edges=member_sets, t=times, gap=gaps)
    def test_expansion_atomic_and_paired(self, edges, t, gap):
        """A domain event expands to one raw event per member link, all
        at the domain event's own timestamp, and the down/up expansions
        pair per link."""
        domain = FailureDomain.srlg("g", edges)
        down = _per_link(domain.down_event(t), "link_down")
        up = _per_link(domain.up_event(t + gap), "link_up")
        assert len(down) == len(domain.edges)
        assert all(e.kind == "link_down" and e.time == t for e in down)
        assert all(
            e.kind == "link_up" and e.time == t + gap for e in up
        )
        # Stable member order: expansion follows the canonical sorted
        # member set regardless of the order edges were given in.
        assert tuple(e.edge for e in down) == domain.edges
        assert tuple(e.edge for e in up) == domain.edges
        # Pairing per member link: the expanded schedule validates, and
        # its per-link downtime union is exactly members x gap.
        fs = FaultSchedule(down + up)
        assert fs.link_downtime(FT4, t + gap + 1.0) == pytest.approx(
            len(domain.edges) * gap
        )

    @settings(max_examples=60, deadline=None)
    @given(edges=member_sets, t=times)
    def test_record_round_trip(self, edges, t):
        """srlg/switch events survive to_record/from_record bit-for-bit
        (the JSONL store's serialization layer)."""
        srlg = FailureDomain.srlg("conduit:x", edges)
        switch = FailureDomain.switch(FT4, FT4.switches[0])
        for event in (
            srlg.down_event(t),
            srlg.up_event(t),
            switch.down_event(t),
            switch.up_event(t),
        ):
            assert FaultEvent.from_record(event.to_record()) == event

    @settings(max_examples=40, deadline=None)
    @given(edges=member_sets, t=times)
    def test_equal_time_ordering_stable(self, edges, t):
        """Events at equal timestamps keep their given order — an SRLG
        down and a switch down at the same instant apply in sequence."""
        srlg = FailureDomain.srlg("g", edges)
        switch = FailureDomain.switch(FT4, FT4.switches[0])
        first = [srlg.down_event(t), switch.down_event(t)]
        fs = FaultSchedule(
            first + [srlg.up_event(t + 1.0), switch.up_event(t + 1.0)]
        )
        assert fs.events[:2] == tuple(first)

    def test_expansion_of_unknown_switch_rejected(self):
        event = FaultEvent(time=1.0, kind="switch_down", node="nope")
        with pytest.raises(ValidationError):
            event.member_edges(FT4)

    def test_jsonl_store_round_trip(self, tmp_path):
        """Satellite: the new event kinds survive the JSONL trace store."""
        switch = FailureDomain.switch(FT4, FT4.switches[0])
        srlg = FailureDomain.srlg("conduit:a", SWITCH_EDGES[:3])
        fs = FaultSchedule.scripted(
            [
                (0.4, "down", SWITCH_EDGES[-1]),
                (0.6, "down", switch),
                (1.1, "down", srlg),
                (2.2, "up", switch),
                (2.8, "up", srlg),
                (3.0, "up", SWITCH_EDGES[-1]),
            ]
        )
        flows = [
            Flow(
                id="f", src=FT4.hosts[0], dst=FT4.hosts[-1],
                size=1.0, release=0.5, deadline=5.0,
            )
        ]
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(flows, path, faults=fs)
        assert read_trace_faults(path).events == fs.events


# ---------------------------------------------------------------------------
# Correlated generation: domain-level Poisson + cascade.
# ---------------------------------------------------------------------------
class TestGenerateCorrelated:
    def _pool(self):
        return tuple(
            FailureDomain.srlg(f"link:{u}--{v}", [(u, v)])
            for u, v in SWITCH_EDGES[:8]
        )

    def test_deterministic(self):
        kw = dict(rate=1.0, duration=20.0, mttr=3.0, cascade=0.6)
        a = FaultSchedule.generate_correlated(
            FT4, seed=7, domains=self._pool(), **kw
        )
        b = FaultSchedule.generate_correlated(
            FT4, seed=7, domains=self._pool(), **kw
        )
        assert a.events == b.events
        c = FaultSchedule.generate_correlated(
            FT4, seed=8, domains=self._pool(), **kw
        )
        assert a.events != c.events

    def test_cascade_adds_follow_on_failures(self):
        base = FaultSchedule.generate_correlated(
            FT4, rate=1.0, duration=20.0, mttr=3.0, seed=7,
            domains=self._pool(), cascade=0.0,
        )
        stormy = FaultSchedule.generate_correlated(
            FT4, rate=1.0, duration=20.0, mttr=3.0, seed=7,
            domains=self._pool(), cascade=1.0,
        )
        assert len(stormy.events) > len(base.events)

    def test_may_partition_fabric(self):
        """Unlike the connectivity-safe per-link draw, the correlated
        generator is allowed to disconnect hosts."""
        edge_switch = next(
            n for n in FT4.switches if n.startswith("sw_e_")
        )
        pool = (FailureDomain.switch(FT4, edge_switch),)
        fs = FaultSchedule.generate_correlated(
            FT4, rate=2.0, duration=10.0, mttr=5.0, seed=0, domains=pool,
        )
        assert fs.events, "expected at least one domain outage"
        graph = FT4.graph.copy()
        disconnected = False
        for event in fs.fabric_events():
            for edge in event.member_edges(FT4):
                if event.is_down:
                    graph.remove_edge(*edge)
                else:
                    graph.add_edge(*edge)
            disconnected = disconnected or not nx.is_connected(graph)
        assert disconnected

    def test_cascade_validated(self):
        with pytest.raises(ValidationError):
            FaultSchedule.generate_correlated(
                FT4, rate=1.0, duration=5.0, seed=0,
                domains=self._pool(), cascade=1.5,
            )


# ---------------------------------------------------------------------------
# Partition acceptance: a whole-switch outage disconnects fat_tree(8).
# ---------------------------------------------------------------------------
WINDOW = 2.0
T_CUT = 2.0
CAPACITY = 2.0
N_OK = 8
N_EVAC = 2
N_DOOMED = 4
OK_VOLUME = N_OK * 2.0 + N_EVAC * 1.0


@pytest.fixture(scope="module")
def partition_scenario():
    """fat_tree(8), the dead edge switch, and the probing flow set.

    Killing an edge switch isolates its hosts (their only uplink): the
    survivor fabric is disconnected.  One committed flow from a doomed
    host is truncated at the cut; three doomed arrivals after the cut
    are unreachable and never committed; two post-cut intra-pod-0 flows
    land in the dark shard and must be evacuated; the rest are clear.
    """
    topo = fat_tree(8)
    sw = next(n for n in topo.switches if n.startswith("sw_e_"))
    dark = sorted(h for h in topo.neighbors(sw) if h.startswith("h_"))
    lit = [h for h in topo.hosts if h not in dark]
    pod0_lit = [h for h in lit if h.startswith("h_p00_")]
    other = [h for h in lit if not h.startswith("h_p00_")]
    flows = sorted(
        [
            Flow(
                id=f"ok{i}", src=other[i], dst=other[-(i + 1)], size=2.0,
                release=0.5 + 0.4 * i, deadline=0.5 + 0.4 * i + 12.0,
            )
            for i in range(N_OK)
        ]
        + [
            Flow(
                id=f"evac{i}", src=pod0_lit[i], dst=pod0_lit[-(i + 1)],
                size=1.0, release=6.5 + 0.5 * i,
                deadline=6.5 + 0.5 * i + 12.0,
            )
            for i in range(N_EVAC)
        ]
        + [
            Flow(
                id="doomed-pre", src=dark[0], dst=other[0],
                size=6.0, release=0.0, deadline=12.0,
            )
        ]
        + [
            Flow(
                id=f"doomed-post{i}", src=dark[i % len(dark)],
                dst=other[i + 1], size=1.0, release=3.0 + 0.5 * i,
                deadline=3.0 + 0.5 * i + 8.0,
            )
            for i in range(3)
        ],
        key=lambda f: f.release,
    )
    return topo, sw, flows


def _check_partition_report(report):
    n_flows = N_OK + N_EVAC + N_DOOMED
    assert report.flows_seen == n_flows
    assert report.flows_served + report.unserved == n_flows
    # Exactly the doomed flows miss — zero committed survivor flows
    # lost — and each is attributed to the failure exactly once.
    assert report.deadline_misses + report.unserved == N_DOOMED
    assert report.misses_attributed_to_failure == N_DOOMED
    assert report.domain_failures == 1
    assert report.domain_recoveries == 0
    # Survivor volume intact; doomed bytes only from before the cut.
    assert report.volume_delivered >= OK_VOLUME - 1e-9
    assert report.volume_delivered <= OK_VOLUME + CAPACITY * T_CUT + 1e-9


class TestSwitchPartition:
    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_single_owner_replays_to_completion(
        self, partition_scenario, policy_cls
    ):
        topo, sw, flows = partition_scenario
        power = PowerModel.quadratic(capacity=CAPACITY)
        faults = FaultSchedule.scripted([(T_CUT, "down", sw)])
        report = ReplayEngine(
            topo, power, policy_cls(), window=WINDOW, faults=faults
        ).run(list(flows))
        _check_partition_report(report)

    @pytest.mark.parametrize("num_shards", (1, 2))
    def test_sharded_evacuates_dark_shard(
        self, partition_scenario, num_shards
    ):
        topo, sw, flows = partition_scenario
        power = PowerModel.quadratic(capacity=CAPACITY)
        faults = FaultSchedule.scripted([(T_CUT, "down", sw)])
        with ReplayService(
            topo, power, window=WINDOW, num_shards=num_shards,
            mode="greedy", faults=faults,
        ) as engine:
            report = engine.run(iter(flows))
        _check_partition_report(report)
        # The dark shard quiesced; its post-cut intra-pod flows were
        # redirected to the cross-shard router and still served.
        assert report.evacuated_flows == N_EVAC
        assert report.unserved == 0


# ---------------------------------------------------------------------------
# Sharded restore between a correlated failure and its recovery.
# ---------------------------------------------------------------------------
def _normalized(report):
    stats = None
    if report.shard_stats is not None:
        stats = tuple(
            dataclasses.replace(s, solve_s=0.0) for s in report.shard_stats
        )
    return dataclasses.replace(report, shard_stats=stats)


class TestShardedCorrelatedRestore:
    def test_restore_mid_switch_outage(self, ft4, powerdown):
        """Satellite pin: snapshot between a whole-switch failure and
        its recovery; the restored run finishes bit-identically."""
        import numpy as np

        rng = np.random.default_rng(23)
        hosts = list(ft4.hosts)
        flows = []
        t = 0.0
        for i in range(60):
            t += float(rng.exponential(0.25))
            src, dst = (
                hosts[int(j)]
                for j in rng.choice(len(hosts), 2, replace=False)
            )
            flows.append(
                Flow(
                    id=f"p{i}", src=src, dst=dst,
                    size=float(rng.uniform(0.5, 2.0)), release=t,
                    deadline=t + float(rng.uniform(3.0, 6.0)),
                )
            )
        # An aggregation switch: a correlated multi-link outage that
        # degrades but does not partition fat_tree(4).
        agg = next(n for n in ft4.switches if n.startswith("sw_a_"))
        domain = FailureDomain.switch(ft4, agg)
        down_t = flows[len(flows) // 3].release + 0.01
        up_t = flows[2 * len(flows) // 3].release + 0.01
        faults = FaultSchedule.scripted(
            [(down_t, "down", domain), (up_t, "up", domain)]
        )

        def make():
            return ReplayService(
                ft4, powerdown, window=1.0, num_shards=2, mode="greedy",
                faults=faults,
            )

        with make() as engine:
            uninterrupted = engine.run(iter(flows))
        assert uninterrupted.domain_failures == 1
        assert uninterrupted.domain_recoveries == 1
        assert uninterrupted.link_failures == len(domain.edges)

        split = next(
            i for i, f in enumerate(flows) if down_t < f.release < up_t
        ) + 1
        engine = make()
        for flow in flows[:split]:
            engine.submit(flow)
        blob = engine.snapshot()
        restored = ReplayService.restore(ft4, powerdown, blob)
        for flow in flows[split:]:
            engine.submit(flow)
            restored.submit(flow)
        original = engine.drain()
        resumed = restored.drain()
        engine.close()
        restored.close()
        assert _normalized(resumed) == _normalized(original)
        assert _normalized(resumed) == _normalized(uninterrupted)
        assert resumed.domain_failures == 1
        assert resumed.domain_recoveries == 1


# ---------------------------------------------------------------------------
# SRLG-diverse repair: the deterministic conduit pin.
# ---------------------------------------------------------------------------
class TestSrlgDiverseRepair:
    def test_conduit_diverse_dodges_risk_group(self):
        """One agg->core uplink dies; its conduit sibling is the single
        most hazardous edge in the fabric.  Blind repair lands exactly
        there; diverse repair pays for a path clear of the risk group."""
        topo = fat_tree(4)
        conduits = uplink_conduits(topo)
        conduit = next(
            c for c in conduits if c.name == "conduit:sw_a_p00_0"
        )
        dead = conduit.edges[0]
        domain = FailureDomain.srlg(
            f"link:{dead[0]}--{dead[1]}", [dead]
        )
        flow = Flow(
            id="f", src="h_p00_e0_0", dst="h_p01_e0_0",
            size=30.0, release=0.0, deadline=10.0,
        )
        power = PowerModel.quadratic()

        def repaired_path(diverse):
            faults = FaultSchedule.scripted(
                [(1.0, "down", domain), (9.0, "up", domain)]
            )
            report = ReplayEngine(
                topo, power, GreedyDensityPolicy(), window=4.0,
                faults=faults, failure_domains=conduits,
                srlg_diverse=diverse, keep_schedules=True,
            ).run([flow])
            assert report.flows_rerouted == 1
            assert report.misses_attributed_to_failure == 0
            return report.schedules[-1].path

        risky = set(conduit.edges)
        blind = {
            canonical_edge(*e) for e in path_edges(repaired_path(False))
        }
        diverse = {
            canonical_edge(*e) for e in path_edges(repaired_path(True))
        }
        assert blind & risky, "blind repair should use the conduit sibling"
        assert not (diverse & risky), (
            "diverse repair must avoid the failed link's risk group"
        )
