#!/usr/bin/env python3
"""The sharded streaming-replay service, end to end.

A fat-tree splits on its pod boundaries into four relaxation shards,
each solved in its own fork worker; the parent routes only the
cross-pod flows and stacks every commitment in one exact accountant.
One class, :class:`~repro.service.ReplayService`, is the whole service;
the demo drives it through its lifecycle:

* stream a trace in (``submit_many``), watching per-window stats
  (``poll``);
* snapshot mid-stream (one payload: fabric, power and partition
  fingerprints plus the pickled service), restore into a *fresh*
  service, and ``drain`` both — the reports match bit for bit;
* replay the same trace under a starvation solve budget and watch the
  degrade-to-greedy fallback being recorded honestly.

Run:  python examples/sharded_replay.py
"""

import dataclasses

from repro.power import PowerModel
from repro.service import ReplayService, SolveBudget
from repro.topology import fat_tree
from repro.traces import (
    PoissonProcess,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
)


def normalized(report):
    """Zero the wall-clock solve timings so reports compare by content."""
    return dataclasses.replace(
        report,
        shard_stats=tuple(
            dataclasses.replace(s, solve_s=0.0) for s in report.shard_stats
        ),
    )


def main() -> None:
    topology = fat_tree(4)
    power = PowerModel.quadratic()
    spec = TraceSpec(
        arrivals=PoissonProcess(4.0),
        duration=30.0,
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=42,
    )
    flows = list(generate_trace(topology, spec))
    kwargs = dict(window=5.0, mode="relax", seed=0, fw_max_iterations=30)

    # --- streaming admission with live window stats -------------------
    service = ReplayService(topology, power, **kwargs)
    print(f"partition: {service.partition.describe()}")
    cut = 2 * len(flows) // 3
    service.submit_many(flows[:cut])
    for stats in service.poll():
        print(f"  {stats.describe()}")

    # --- snapshot mid-stream, restore into a fresh service ------------
    blob = service.snapshot()
    service.close()
    print(f"snapshot: {len(blob)} bytes at flow {cut}/{len(flows)}")

    restored = ReplayService.restore(topology, power, blob)
    restored.submit_many(flows[cut:])
    resumed_report = restored.drain()

    with ReplayService(topology, power, **kwargs) as uninterrupted:
        uninterrupted.submit_many(flows)
        baseline_report = uninterrupted.drain()

    match = normalized(resumed_report) == normalized(baseline_report)
    print(f"restored == uninterrupted: {match}")
    if not match:
        raise SystemExit("snapshot/restore drifted from the baseline run")
    print(resumed_report.summary())

    # --- degrade under pressure ---------------------------------------
    with ReplayService(
        topology, power, budget=SolveBudget(per_window_s=0.0), **kwargs
    ) as starved:
        starved.submit_many(flows)
        degraded_report = starved.drain()
    print(
        f"\nstarved budget: {degraded_report.degraded_windows}/"
        f"{degraded_report.windows} window solves degraded to greedy, "
        f"energy {degraded_report.total_energy:.6g} vs "
        f"{baseline_report.total_energy:.6g} unstarved"
    )


if __name__ == "__main__":
    main()
