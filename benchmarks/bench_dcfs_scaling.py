"""Benchmark PERF-MCF: Most-Critical-First runtime scaling in n.

Times the DCFS solver (the paper bounds it by O(n^2 |V|)) on the paper's
fat-tree with shortest-path routing at increasing flow counts.  The
incremental engine (DESIGN.md Sections 8, 17 and 22) makes the 400- and
800-flow sizes routine; the speedup test pins it against the
pure-Python oracle ``solve_dcfs_reference`` (``tests/oracles/dcfs.py``)
on the largest instance, times route construction on its own
(``paths_s``), and records both in ``BENCH_dcfs_scaling.json``.  The cutoff test measures where scoring a
batch of links one by one with the critical-interval list enumeration
stops beating one batched NumPy grid pass, on the batches Epoch-DCFS
replay windows re-score together: the measurement
``repro.scheduling.yds._BATCH_WORK_CUTOFF`` is set from.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import pytest

import repro.core.dcfs as dcfs_module
import repro.scheduling.yds as yds_module
from record import record_bench
from tests.oracles.dcfs import solve_dcfs_reference
from repro.core import solve_dcfs
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


def _replay_batches(windows: int = 40, seed: int = 2):
    """Every batch of links Epoch-DCFS scores on ``windows`` windows of
    the replay benchmark's ``dcfs-epoch`` trace: each window's first
    batch (every link) and each round's re-scored links.

    Epoch-DCFS solves each 0.5 s window as a fresh instance (blind to the
    committed background), so solving the windows directly makes exactly
    the replay's calls.  Each batch is a list of ``(release, deadline,
    work, blocked)`` tuples with the timelines copied as they stood.
    """
    spec = TraceSpec(
        arrivals=PoissonProcess(200.0), duration=windows * 0.5, seed=seed
    )
    flows = list(generate_trace(TOPOLOGY, spec))
    batches = []
    score = dcfs_module.critical_interval_batch

    def capture(links):
        copied = []
        for release, deadline, work, blocked in links:
            timeline = BlockedTimeline()
            timeline.add_many(blocked.segments())
            copied.append((list(release), list(deadline), list(work), timeline))
        batches.append(copied)
        return score(links)

    t0 = flows[0].release
    dcfs_module.critical_interval_batch = capture
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
        dcfs_module.critical_interval_batch = score
    return batches


def _batch_work(batch) -> int:
    return sum(len(deadline) ** 2 for _, deadline, _, _ in batch)


def _time_per_batch(batches, cutoffs, repeats: int = 7) -> list[float]:
    """Best-of-``repeats`` mean seconds per ``critical_interval_batch``
    call under each work cutoff (0 forces the batched grid, a huge one
    the list enumeration).

    The cutoffs take turns within every repeat, so a host that changes
    speed mid-run slows both alike.
    """
    saved = yds_module._BATCH_WORK_CUTOFF
    best = [float("inf")] * len(cutoffs)
    try:
        for _ in range(repeats):
            for k, cutoff in enumerate(cutoffs):
                yds_module._BATCH_WORK_CUTOFF = cutoff
                t0 = time.perf_counter()
                for batch in batches:
                    yds_module.critical_interval_batch(batch)
                best[k] = min(best[k], time.perf_counter() - t0)
    finally:
        yds_module._BATCH_WORK_CUTOFF = saved
    return [b / len(batches) for b in best]


def test_batch_cutoff_crossover(capsys):
    """List enumeration vs one batched grid pass, by batch work.

    Groups the captured batches by their work (summed squared job
    counts) into power-of-two bins and records, per bin, the mean time
    of scoring a batch link by link with the lists and in the batched
    grid (its largest links alone where padding to them would not pay),
    and the smallest bin bound from which the grid wins in every larger
    bin (the measurement ``repro.scheduling.yds._BATCH_WORK_CUTOFF`` is
    set from).  Informational: host noise makes a timing gate flaky, so
    nothing is asserted about the ratios.
    """
    batches = _replay_batches()
    bins: dict[int, list] = defaultdict(list)
    for batch in batches:
        bins[1 << max(0, (_batch_work(batch) - 1).bit_length())].append(batch)
    rows = {}
    for bound in sorted(bins):
        group = bins[bound][:150]
        if len(group) < 5:
            continue
        lists, grid = _time_per_batch(group, (10**9, 0))
        rows[bound] = {
            "batches": len(bins[bound]),
            "links_per_batch": sum(map(len, group)) / len(group),
            "lists_us": lists * 1e6,
            "grid_us": grid * 1e6,
        }
    crossover = None
    for bound, row in sorted(rows.items(), reverse=True):
        if row["lists_us"] < row["grid_us"]:
            break
        crossover = bound // 2 + 1
    path = record_bench(
        "dcfs_batch_cutoff",
        seed=2,
        topology="fat_tree(8)",
        extra={
            "batches": len(batches),
            "per_work_bin": rows,
            "measured_crossover": crossover,
            "configured_cutoff": yds_module._BATCH_WORK_CUTOFF,
        },
    )
    with capsys.disabled():
        print()
        for bound, row in rows.items():
            print(
                f"work <= {bound:5d} ({row['batches']:3d} batches, "
                f"{row['links_per_batch']:5.1f} links): "
                f"lists {row['lists_us']:7.1f} us, "
                f"grid {row['grid_us']:7.1f} us "
                f"({row['lists_us'] / row['grid_us']:.2f}x)"
            )
        print(
            f"grid wins from work {crossover} "
            f"(_BATCH_WORK_CUTOFF={yds_module._BATCH_WORK_CUTOFF}) -> {path}"
        )
