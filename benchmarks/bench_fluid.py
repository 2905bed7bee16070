"""Benchmark PERF-FLUID: event-driven fluid replay throughput.

Replays a 10k-flow single-rate schedule (the shape Random-Schedule
produces) on the paper's k = 8 fat-tree with the event-diff
:func:`simulate_fluid`, cross-checks its energy against the analytical
``Schedule.energy``, and pins the speedup over the global-epoch oracle
``simulate_fluid_reference`` (``tests/oracles/fluid.py``) on a 2k-flow
instance (the reference is O(epochs x flows x path), so 10k flows would
dominate the whole CI budget).  Headline numbers land in ``BENCH_fluid_replay.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from record import record_bench
from tests.oracles.fluid import simulate_fluid_reference
from repro.flows import paper_workload
from repro.power import PowerModel
from repro.scheduling import FlowSchedule, Schedule, Segment
from repro.sim import simulate_fluid
from repro.topology import fat_tree

TOPOLOGY = fat_tree(8)
POWER = PowerModel.quadratic()


def _density_schedule(num_flows: int):
    """One constant-density segment per flow on its shortest path."""
    flows = paper_workload(TOPOLOGY, num_flows, seed=7, horizon=(1.0, 100.0))
    flow_schedules = []
    for flow in flows:
        path = tuple(TOPOLOGY.shortest_path(flow.src, flow.dst))
        flow_schedules.append(
            FlowSchedule(
                flow=flow,
                path=path,
                segments=(Segment(flow.release, flow.deadline, flow.density),),
            )
        )
    return flows, Schedule(flow_schedules)


@pytest.mark.benchmark(group="fluid-replay")
@pytest.mark.parametrize("num_flows", [2000, 10000])
def test_fluid_replay_throughput(benchmark, num_flows):
    flows, schedule = _density_schedule(num_flows)

    def run():
        return simulate_fluid(schedule, flows, TOPOLOGY, POWER)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    analytic = schedule.energy(POWER, horizon=flows.horizon)
    assert report.total_energy == pytest.approx(analytic.total, rel=1e-9)
    assert report.all_deadlines_met


def test_speedup_vs_reference_and_record(capsys):
    flows, schedule = _density_schedule(2000)
    t0 = time.perf_counter()
    fast = simulate_fluid(schedule, flows, TOPOLOGY, POWER)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = simulate_fluid_reference(schedule, flows, TOPOLOGY, POWER)
    t_ref = time.perf_counter() - t0

    assert fast.total_energy == pytest.approx(ref.total_energy, rel=1e-9)
    assert fast.deadlines_met == ref.deadlines_met
    assert dict(fast.completion_times) == dict(ref.completion_times)

    flows10k, schedule10k = _density_schedule(10000)
    t0 = time.perf_counter()
    simulate_fluid(schedule10k, flows10k, TOPOLOGY, POWER)
    t_10k = time.perf_counter() - t0

    speedup = t_ref / t_fast
    path = record_bench(
        "fluid_replay",
        wall_clock_s=t_10k,
        flows_per_sec=10000 / t_10k,
        seed=7,
        topology="fat_tree(8)",
        extra={
            "num_flows": 10000,
            "speedup_vs_reference_at_2k": speedup,
            "reference_wall_clock_s_at_2k": t_ref,
        },
    )
    with capsys.disabled():
        print(
            f"\nfluid 2k: fast {t_fast:.3f}s, reference {t_ref:.3f}s "
            f"({speedup:.0f}x); 10k flows in {t_10k:.3f}s -> {path}"
        )
    # Wall-clock floor (~45x measured) is opt-in so loaded CI cannot flake.
    if os.environ.get("BENCH_STRICT"):
        assert speedup >= 5.0
