"""Benchmark correlated failure domains: partition tolerance + SRLG repair.

Two measurements:

* a scripted whole-switch outage that partitions fat_tree(8) — the dead
  edge switch is its hosts' only uplink, so their flows are doomed.  All
  six policies (single-owner) plus the sharded service (1 and 2 shards,
  greedy mode — pinned to single-owner semantics on this small instance)
  must replay to completion: no crashes, zero committed survivor flows
  lost, every doomed flow's miss attributed to the failure exactly once,
  and delivered volume never counting bytes scheduled past the cut; and
* the ABL-CHURN-CORR table (``churn_correlated_ablation``) — correlated
  conduit-SRLG churn vs independent churn at matched downtime fraction,
  asserting SRLG-diverse repair beats SRLG-blind repair on
  time-to-recover over the same fault schedules.

The partition scenario lands in ``BENCH_churn_correlated.json``, the
ablation grid in ``BENCH_churn_correlated_ablation.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from record import record_bench
from repro.experiments import churn_correlated_ablation
from repro.flows import Flow
from repro.power import PowerModel
from repro.service import ReplayService
from repro.sim import FaultSchedule
from repro.topology import fat_tree
from repro.traces import (
    EpochDcfsPolicy,
    GreedyDensityPolicy,
    LeastLoadedPolicy,
    OnlineDensityPolicy,
    PowerOfTwoPolicy,
    RelaxationRoundingPolicy,
    ReplayEngine,
)

SEED = 0
#: Trace length in seconds; the CI chaos-smoke step shrinks it.
DURATION = float(os.environ.get("BENCH_CHURN_DURATION", "30"))

POLICIES = (
    GreedyDensityPolicy,
    PowerOfTwoPolicy,
    LeastLoadedPolicy,
    OnlineDensityPolicy,
    EpochDcfsPolicy,
    RelaxationRoundingPolicy,
)

WINDOW = 2.0
T_CUT = 2.0  # switch dies at a window boundary; applies in (2, 4]
CAPACITY = 2.0
N_OK = 8
N_EVAC = 2
N_DOOMED = 4  # 1 committed pre-cut + 3 arriving post-cut
OK_VOLUME = N_OK * 2.0 + N_EVAC * 1.0


def _partition_scenario():
    """fat_tree(8), a whole-switch outage, and a flow set probing it.

    Killing an edge switch isolates its four hosts — a true partition.
    The flow set has survivor flows clear of pod 0, two post-cut
    intra-pod-0 flows on live edge switches (assigned to the now-dark
    shard, so the sharded service must evacuate them), one committed
    flow from a doomed host (truncated at the cut), and three doomed
    arrivals after the cut (unreachable, never committed).
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
                id=f"ok{i}",
                src=other[i],
                dst=other[-(i + 1)],
                size=2.0,
                release=0.5 + 0.4 * i,
                deadline=0.5 + 0.4 * i + 12.0,
            )
            for i in range(N_OK)
        ]
        + [
            Flow(
                id=f"evac{i}",
                src=pod0_lit[i],
                dst=pod0_lit[-(i + 1)],
                size=1.0,
                release=6.5 + 0.5 * i,
                deadline=6.5 + 0.5 * i + 12.0,
            )
            for i in range(N_EVAC)
        ]
        + [
            Flow(
                id="doomed-pre",
                src=dark[0],
                dst=other[0],
                size=6.0,
                release=0.0,
                deadline=12.0,
            )
        ]
        + [
            Flow(
                id=f"doomed-post{i}",
                src=dark[i % len(dark)],
                dst=other[i + 1],
                size=1.0,
                release=3.0 + 0.5 * i,
                deadline=3.0 + 0.5 * i + 8.0,
            )
            for i in range(3)
        ],
        key=lambda f: f.release,
    )
    return topo, sw, flows


def _check_partition_report(report):
    """The acceptance invariants every engine must satisfy."""
    n_flows = N_OK + N_EVAC + N_DOOMED
    assert report.flows_seen == n_flows
    # Every flow is accounted: scheduled or honestly unserved.
    assert report.flows_served + report.unserved == n_flows
    # Exactly the doomed flows miss — zero committed survivor flows lost.
    assert report.deadline_misses + report.unserved == N_DOOMED
    # ... and each doomed flow is attributed to the failure exactly once.
    assert report.misses_attributed_to_failure == N_DOOMED
    assert report.domain_failures == 1
    assert report.domain_recoveries == 0
    # All survivor volume delivered; doomed bytes only from before the
    # cut (host uplink capacity bounds what physically left the host).
    assert report.volume_delivered >= OK_VOLUME - 1e-9
    assert report.volume_delivered <= OK_VOLUME + CAPACITY * T_CUT + 1e-9


@pytest.mark.benchmark(group="service")
def test_switch_partition_all_engines(benchmark, capsys):
    """A partitioning whole-switch outage replays under every engine."""
    topo, sw, flows = _partition_scenario()
    power = PowerModel.quadratic(capacity=CAPACITY)

    def run():
        results = {}
        for policy_cls in POLICIES:
            faults = FaultSchedule.scripted([(T_CUT, "down", sw)])
            results[policy_cls.__name__] = ReplayEngine(
                topo,
                power,
                policy_cls(),
                window=WINDOW,
                faults=faults,
            ).run(list(flows))
        for shards in (1, 2):
            faults = FaultSchedule.scripted([(T_CUT, "down", sw)])
            with ReplayService(
                topo,
                power,
                window=WINDOW,
                num_shards=shards,
                mode="greedy",
                faults=faults,
            ) as engine:
                results[f"sharded[{shards}]"] = engine.run(iter(flows))
        return results

    t0 = time.perf_counter()
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0

    for name, report in results.items():
        _check_partition_report(report)
    # The dark shard quiesced: its post-cut intra-pod flows were
    # evacuated to the cross-shard router and still served.
    for shards in (1, 2):
        sharded = results[f"sharded[{shards}]"]
        assert sharded.evacuated_flows == N_EVAC
        assert sharded.unserved == 0

    with capsys.disabled():
        print()
        print(f"switch partition: {sw} down at t={T_CUT}")
        for name, report in results.items():
            print(
                f"  {name:28s} {report.flows_served}/{report.flows_seen} "
                f"served, {report.misses_attributed_to_failure} attributed, "
                f"volume {report.volume_delivered:.3f}"
            )
    record_bench(
        "churn_correlated",
        wall_clock_s=wall,
        seed=SEED,
        topology="fat_tree(8)",
        extra={
            "scenario": "whole-switch partition",
            "switch": sw,
            "engines": {
                name: {
                    "flows_served": report.flows_served,
                    "deadline_misses": report.deadline_misses,
                    "unserved": report.unserved,
                    "misses_attributed": report.misses_attributed_to_failure,
                    "volume_delivered": report.volume_delivered,
                    "evacuated_flows": report.evacuated_flows,
                }
                for name, report in results.items()
            },
        },
    )


@pytest.mark.benchmark(group="ablation")
def test_correlated_ablation(benchmark, capsys):
    """ABL-CHURN-CORR: SRLG-diverse repair wins at matched downtime."""

    def run():
        return churn_correlated_ablation(duration=DURATION, seed=SEED)

    t0 = time.perf_counter()
    table = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    with capsys.disabled():
        print()
        print(table.render())

    assert len(table.rows) == 3
    by_profile = {row[0]: row for row in table.rows}  # formatted strings
    blind = by_profile["correlated/blind"]
    diverse = by_profile["correlated/diverse"]
    independent = by_profile["independent"]
    # Both correlated arms replay the same fault schedules: identical
    # downtime, identical failure counts — the delta is pure repair
    # policy, and diversity must not lose on time-to-recover.
    assert blind[1] == diverse[1]
    assert blind[2] == diverse[2]
    assert float(diverse[6]) <= float(blind[6])
    # The independent arm is calibrated to the correlated downtime.
    assert float(independent[1]) == pytest.approx(
        float(blind[1]), rel=0.35
    )
    record_bench(
        "churn_correlated_ablation",
        wall_clock_s=wall,
        seed=SEED,
        topology="fat_tree(4)",
        extra={
            "grid": [list(row) for row in table.rows],
            "columns": list(table.columns),
            "duration": DURATION,
        },
    )
