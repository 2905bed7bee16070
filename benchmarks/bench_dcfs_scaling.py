"""Benchmark PERF-MCF: Most-Critical-First runtime scaling in n.

Times the DCFS solver (the paper bounds it by O(n^2 |V|)) on the paper's
fat-tree with shortest-path routing at increasing flow counts.  The
incremental engine (DESIGN.md Sections 8 and 17) makes the 400- and
800-flow sizes routine; the speedup test pins it against the retained
pure-Python ``solve_dcfs_reference`` on the largest instance, times route
construction on its own (``paths_s``), and records both in
``BENCH_dcfs_scaling.json``.  The cutoff test measures where the
critical-interval list enumeration stops beating the NumPy grid, on the
link scores of Epoch-DCFS replay windows — the measurement
``repro.scheduling.yds._SCALAR_CUTOFF`` is set from.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import pytest

import repro.core.dcfs as dcfs_module
import repro.scheduling.yds as yds_module
from record import record_bench
from repro.core import solve_dcfs, solve_dcfs_reference
from repro.errors import InfeasibleError
from repro.flows import FlowSet, paper_workload
from repro.power import PowerModel
from repro.scheduling.timeline import BlockedTimeline
from repro.topology import fat_tree
from repro.traces import PoissonProcess, TraceSpec, generate_trace

TOPOLOGY = fat_tree(8)
POWER = PowerModel.quadratic()
LARGEST = 800


def _routed_instance(num_flows: int, topology=TOPOLOGY):
    flows = paper_workload(topology, num_flows, seed=23)
    paths = {
        f.id: topology.shortest_path(f.src, f.dst) for f in flows
    }
    return flows, paths


@pytest.mark.benchmark(group="dcfs-scaling")
@pytest.mark.parametrize("num_flows", [100, 200, 400, 800])
def test_most_critical_first_scaling(benchmark, num_flows):
    flows, paths = _routed_instance(num_flows)

    def run():
        return solve_dcfs(flows, TOPOLOGY, paths, POWER)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.rates) == num_flows


def test_speedup_vs_reference_and_record(capsys):
    """Fast engine must match the reference exactly and beat it soundly.

    Correctness is always asserted; the wall-clock floor (>= 3x, vs ~12x
    measured on a 2-vCPU Xeon VM) only fires when ``BENCH_STRICT`` is set,
    so an oversubscribed CI runner cannot flake the build.  The measured
    ratio lands in the JSON record for cross-PR tracking either way.
    Routes are built on a fresh topology, so ``paths_s`` includes growing
    its shortest-path trees (at most one per source host).
    """
    topology = fat_tree(8)
    t0 = time.perf_counter()
    flows, paths = _routed_instance(LARGEST, topology)
    t_paths = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = solve_dcfs(flows, topology, paths, POWER)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = solve_dcfs_reference(flows, topology, paths, POWER)
    t_ref = time.perf_counter() - t0

    assert fast.rounds == ref.rounds
    assert fast.rates == ref.rates
    for fid in ref.rates:
        assert fast.schedule[fid].segments == ref.schedule[fid].segments

    speedup = t_ref / t_fast
    path = record_bench(
        "dcfs_scaling",
        wall_clock_s=t_fast,
        flows_per_sec=LARGEST / t_fast,
        seed=23,
        topology="fat_tree(8)",
        extra={
            "num_flows": LARGEST,
            "paths_s": t_paths,
            "reference_wall_clock_s": t_ref,
            "speedup_vs_reference": speedup,
            "rounds": fast.rounds,
        },
    )
    with capsys.disabled():
        print(
            f"\ndcfs n={LARGEST}: routes {t_paths:.3f}s, fast {t_fast:.3f}s, "
            f"reference {t_ref:.3f}s ({speedup:.1f}x) -> {path}"
        )
    if os.environ.get("BENCH_STRICT"):
        assert speedup >= 3.0


def _replay_link_scores(windows: int = 40, seed: int = 2):
    """Every critical-interval call Epoch-DCFS makes on ``windows`` windows
    of the replay benchmark's ``dcfs-epoch`` trace, grouped by job count.

    Epoch-DCFS solves each 0.5 s window as a fresh instance (blind to the
    committed background), so solving the windows directly makes exactly
    the replay's calls.  Each entry is ``(release, deadline, work,
    blocked)`` with the timeline copied as it stood at the call.
    """
    spec = TraceSpec(
        arrivals=PoissonProcess(200.0), duration=windows * 0.5, seed=seed
    )
    flows = list(generate_trace(TOPOLOGY, spec))
    calls: dict[int, list] = defaultdict(list)
    score = dcfs_module.critical_interval_arrays

    def capture(release, deadline, work, blocked=None):
        copied = None
        if blocked is not None:
            copied = BlockedTimeline()
            copied.add_many(blocked.segments())
        calls[len(deadline)].append(
            (list(release), list(deadline), list(work), copied)
        )
        return score(release, deadline, work, blocked)

    t0 = flows[0].release
    dcfs_module.critical_interval_arrays = capture
    try:
        for k in range(windows):
            lo, hi = t0 + 0.5 * k, t0 + 0.5 * (k + 1)
            window = [f for f in flows if lo <= f.release < hi]
            if window:
                window_set = FlowSet(window)
                paths = {
                    f.id: TOPOLOGY.shortest_path(f.src, f.dst) for f in window
                }
                solve_dcfs(window_set, TOPOLOGY, paths, POWER)
    finally:
        dcfs_module.critical_interval_arrays = score
    return calls


def _time_per_call(calls, cutoff: int, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean seconds per call with the given cutoff."""
    saved = yds_module._SCALAR_CUTOFF
    yds_module._SCALAR_CUTOFF = cutoff
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for release, deadline, work, blocked in calls:
                try:
                    yds_module.critical_interval_arrays(
                        release, deadline, work, blocked
                    )
                except InfeasibleError:  # overlap-mode inputs
                    pass
            best = min(best, time.perf_counter() - t0)
    finally:
        yds_module._SCALAR_CUTOFF = saved
    return best / len(calls)


def test_scalar_cutoff_crossover(capsys):
    """List enumeration vs NumPy grid per job count, on replay link scores.

    Records, per job count, the mean call time of each path and their
    ratio, and the largest job count up to which the lists win at every
    size (the cutoff's measured value).  Informational: host noise makes
    a timing gate flaky, so nothing is asserted about the ratios.
    """
    calls = _replay_link_scores()
    total = sum(len(group) for group in calls.values())
    rows = {}
    crossover = 1
    for n in range(2, 21):
        group = calls.get(n, [])[:150]
        if len(group) < 5:
            continue
        lists = _time_per_call(group, 10**6)
        grid = _time_per_call(group, 0)
        rows[n] = {"lists_us": lists * 1e6, "grid_us": grid * 1e6}
        if lists < grid and crossover == n - 1:
            crossover = n
    histogram = {n: len(group) / total for n, group in sorted(calls.items())}
    path = record_bench(
        "dcfs_scalar_cutoff",
        seed=2,
        topology="fat_tree(8)",
        extra={
            "scores": total,
            "share_single_job": histogram.get(1, 0.0),
            "share_at_most_12": sum(
                share for n, share in histogram.items() if n <= 12
            ),
            "per_size": rows,
            "measured_crossover": crossover,
            "configured_cutoff": yds_module._SCALAR_CUTOFF,
        },
    )
    with capsys.disabled():
        print()
        for n, row in rows.items():
            print(
                f"n={n:2d}: lists {row['lists_us']:6.1f} us, "
                f"grid {row['grid_us']:6.1f} us "
                f"({row['lists_us'] / row['grid_us']:.2f}x)"
            )
        print(
            f"lists win up to n={crossover} "
            f"(_SCALAR_CUTOFF={yds_module._SCALAR_CUTOFF}) -> {path}"
        )
