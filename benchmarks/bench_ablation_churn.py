"""Benchmark ABL-CHURN: mid-replay fault injection and self-healing.

Two measurements:

* the policy x failure-rate churn grid (``churn_ablation``) — link
  failures land *mid-replay*, committed flows are truncated at the next
  window boundary and repaired, and the table reports the honest
  disruption accounting next to the energy actually spent; and
* a scripted worker-kill on the sharded service — one shard worker is
  killed mid-trace and the heartbeat/restart/resubmit machinery must
  finish the replay having lost zero committed flows; in relax mode the
  killed run's report must equal the unkilled run's.

Both land in ``BENCH_churn.json`` for the trend history.
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from record import record_bench
from repro.experiments import churn_ablation
from repro.power import PowerModel
from repro.service import ReplayService
from repro.sim import FaultSchedule
from repro.topology import fat_tree
from repro.traces import (
    PoissonProcess,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
)

SEED = 1
#: Trace length in seconds; the CI chaos-smoke step shrinks it.
DURATION = float(os.environ.get("BENCH_CHURN_DURATION", "30"))


@pytest.mark.benchmark(group="ablation")
def test_churn_sweep(benchmark, capsys):
    def run():
        return churn_ablation(
            failure_rates=(0.0, 0.1, 0.3),
            rate=3.0,
            duration=DURATION,
            fat_tree_k=4,
            seed=SEED,
        )

    t0 = time.perf_counter()
    table = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    with capsys.disabled():
        print()
        print(table.render())
    assert len(table.rows) == 9
    by_policy: dict[str, list] = {}
    for row in table.rows:  # Table rows are formatted strings
        by_policy.setdefault(row[0], []).append(row)
    for rows in by_policy.values():
        # The fail-rate-0 anchor is fault-free: nothing rerouted, nothing
        # attributed to failures.
        anchor = next(r for r in rows if float(r[1]) == 0)
        assert int(anchor[2]) == 0
        assert int(anchor[3]) == 0
        assert int(anchor[4]) == 0
    record_bench(
        "churn",
        wall_clock_s=wall,
        seed=SEED,
        topology="fat_tree(4)",
        extra={
            "grid": [list(row) for row in table.rows],
            "columns": list(table.columns),
        },
    )


def _normalized(report):
    """The report with its restart count and solve timings zeroed."""
    return dataclasses.replace(
        report,
        worker_restarts=0,
        shard_stats=tuple(
            dataclasses.replace(s, solve_s=0.0) for s in report.shard_stats
        ),
    )


@pytest.mark.benchmark(group="service")
def test_worker_kill_recovery(benchmark, capsys):
    """A mid-replay worker kill must lose zero committed flows."""
    topology = fat_tree(4)
    power = PowerModel.quadratic()
    spec = TraceSpec(
        arrivals=PoissonProcess(4.0),
        duration=min(DURATION, 25.0),
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=SEED,
    )
    flows = list(generate_trace(topology, spec))
    kill_at = flows[len(flows) // 2].release

    def replay(killed: bool, **kwargs):
        faults = FaultSchedule.scripted([(kill_at, "crash", 0)])
        with ReplayService(
            topology,
            power,
            window=2.0,
            num_shards=2,
            faults=faults if killed else None,
            **kwargs,
        ) as engine:
            return engine.run(iter(flows))

    report = benchmark.pedantic(
        replay, args=(True,), kwargs={"mode": "greedy"}, rounds=1, iterations=1
    )
    baseline = replay(False, mode="greedy")
    with capsys.disabled():
        print()
        print(
            f"worker-kill recovery: {report.worker_restarts} restart(s), "
            f"{report.flows_served}/{report.flows_seen} served"
        )
    assert report.worker_restarts >= 1
    # Zero committed flows lost: identical service to the unkilled run.
    assert report.flows_served == baseline.flows_served
    assert report.volume_delivered == baseline.volume_delivered
    assert report.deadline_misses == baseline.deadline_misses
    # Relax mode: the restarted worker re-solves its uncollected windows
    # as they were sent, and a window's routes are a function of its
    # message, so the whole report matches.
    relax = dict(mode="relax", seed=SEED, fw_max_iterations=20)
    killed = replay(True, **relax)
    assert killed.worker_restarts >= 1
    assert _normalized(killed) == _normalized(replay(False, **relax))
