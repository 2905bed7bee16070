"""Benchmark PERF-SHARDED: partitioned relaxation shards vs one engine.

Replays a locality-heavy Poisson trace on the paper's k = 8 fat-tree two
ways: through the single-owner
:class:`~repro.traces.policies.RelaxationRoundingPolicy` (one F-MCF
relaxation over the whole fabric per window) and through the 4-shard
:class:`~repro.service.ReplayService` (one relaxation
pipeline per pod group, windows pipelined across the fork workers, only
cross-pod flows routed globally).  The speedup has two sources measured
together: per-shard subproblems are much smaller than the fabric-wide
solve, and the shard solves overlap in time.

The trace is 90% intra-pod by construction — the sharded service's
operating point.  ``BENCH_SHARDED_REPLAY_FLOWS`` overrides the trace
length.  The >= 2x acceptance floor is asserted only where the fork
worker group actually runs in parallel; on serial platforms the ratio is
recorded without the assertion (matching ``bench_parallel_harness.py``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from record import record_bench
from repro.power import PowerModel
from repro.service import ReplayService
from repro.topology import fat_tree
from repro.traces import (
    PoissonProcess,
    RelaxationRoundingPolicy,
    ReplayEngine,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
)

TOPOLOGY = fat_tree(8)
POWER = PowerModel.quadratic()
WINDOW = 4.0
ARRIVAL_RATE = 25.0
NUM_SHARDS = 4
LOCALITY = 0.9
NUM_FLOWS = int(os.environ.get("BENCH_SHARDED_REPLAY_FLOWS", "3000"))
FW_KWARGS = dict(fw_max_iterations=40, fw_gap_tolerance=5e-3)

_CAN_FORK = (
    mp.get_start_method(allow_none=False) == "fork"
    and os.cpu_count() is not None
    and os.cpu_count() >= 2
)


def _trace() -> list:
    """A Poisson trace re-homed so ~90% of flows stay inside one pod."""
    spec = TraceSpec(
        arrivals=PoissonProcess(ARRIVAL_RATE),
        duration=NUM_FLOWS / ARRIVAL_RATE,
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=1,
    )
    pods: dict[str, list[str]] = {}
    for host in TOPOLOGY.hosts:
        pods.setdefault(TOPOLOGY.node_groups[host], []).append(host)
    pod_hosts = [pods[label] for label in sorted(pods)]
    rng = np.random.default_rng(2)
    flows = []
    for flow in generate_trace(TOPOLOGY, spec):
        home = int(rng.integers(len(pod_hosts)))
        members = pod_hosts[home]
        src_i, dst_i = rng.choice(len(members), size=2, replace=False)
        src = members[int(src_i)]
        if rng.random() < LOCALITY:
            dst = members[int(dst_i)]
        else:
            away = int(rng.integers(len(pod_hosts) - 1))
            away += away >= home
            dst = pod_hosts[away][int(rng.integers(len(pod_hosts[away])))]
        flows.append(dataclasses.replace(flow, src=src, dst=dst))
    return flows


def _run_single(trace: list) -> tuple[float, object]:
    policy = RelaxationRoundingPolicy(seed=0, **FW_KWARGS)
    engine = ReplayEngine(TOPOLOGY, POWER, policy, window=WINDOW)
    start = time.perf_counter()
    report = engine.run(iter(trace))
    return time.perf_counter() - start, report


def _run_sharded(trace: list, num_shards: int = NUM_SHARDS) -> tuple[float, object]:
    with ReplayService(
        TOPOLOGY,
        POWER,
        window=WINDOW,
        num_shards=num_shards,
        mode="relax",
        seed=0,
        **FW_KWARGS,
    ) as engine:
        start = time.perf_counter()
        report = engine.run(iter(trace))
        elapsed = time.perf_counter() - start
    return elapsed, report


@pytest.mark.benchmark(group="trace-replay")
def test_sharded_replay_speedup(benchmark):
    trace = _trace()

    def run():
        return _run_sharded(trace)

    sharded_s, sharded = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sharded.flows_seen == len(trace)
    assert sharded.capacity_violations == 0
    assert sharded.degraded_windows == 0  # no budget -> never degrades

    single_s, single = _run_single(trace)
    assert single.flows_seen == sharded.flows_seen
    speedup = single_s / sharded_s
    if _CAN_FORK:
        # Acceptance floor: 4 pod shards must at least double throughput
        # over the fabric-wide single-engine relaxation.
        assert speedup >= 2.0, f"sharded speedup {speedup:.2f}x < 2x"
    else:
        # Single core: no overlap, so the floor is only the subproblem
        # size advantage (~1.8x measured on one core).
        assert speedup >= 1.4, f"sharded speedup {speedup:.2f}x < 1.4x"

    # Flows/s vs shard count: the trend job tracks the scaling shape.
    shard_sweep = {str(NUM_SHARDS): len(trace) / sharded_s}
    for count in (1, 2):
        sweep_s, sweep_report = _run_sharded(trace, num_shards=count)
        assert sweep_report.flows_seen == len(trace)
        shard_sweep[str(count)] = len(trace) / sweep_s

    intra = sum(
        s.flows for s in sharded.shard_stats if s.shard != "cross-shard"
    )
    record_bench(
        "sharded_replay",
        wall_clock_s=sharded_s,
        flows_per_sec=len(trace) / sharded_s,
        seed=1,
        topology=(
            f"fat_tree(8) x {len(trace)} flows, window {WINDOW}, "
            f"{NUM_SHARDS} shards, locality {LOCALITY}"
        ),
        extra={
            "single_engine_s": single_s,
            "speedup_vs_single_engine": speedup,
            "flows_per_sec_by_shards": shard_sweep,
            "fork_parallelism": _CAN_FORK,
            "windows": sharded.windows,
            "intra_shard_flows": intra,
            "cross_shard_flows": sharded.flows_served - intra,
            "sharded_total_energy": sharded.total_energy,
            "single_total_energy": single.total_energy,
            "sharded_miss_rate": sharded.miss_rate,
            "single_miss_rate": single.miss_rate,
        },
    )
    benchmark.extra_info["speedup_vs_single_engine"] = speedup
