"""CLI runner for the ablation suite.

Usage::

    python -m repro.experiments.runner --which sigma
    python -m repro.experiments.runner --which all --csv-dir results/
    python -m repro.experiments.runner --which all --jobs 8

``--jobs N`` fans each ablation's independent (sweep-point, run-seed)
tasks over ``N`` worker processes (``--jobs 0`` = all cores); tables are
identical to the serial run thanks to deterministic per-task seeding.

With ``--which all`` the ablations share **one pool of N execution
slots** (:func:`repro.experiments.parallel.worker_slots`): every ablation
runs concurrently from its own thread and its tasks queue the moment a
slot frees, so tail ablations no longer idle the workers while earlier
ablations finish their stragglers.  Tables print in the same name order
as the serial run.
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro import kernels
from repro.analysis.reporting import Table
from repro.experiments.parallel import available_parallelism, worker_slots
from repro.experiments.ablations import (
    churn_ablation,
    churn_correlated_ablation,
    failure_ablation,
    online_ablation,
    lambda_ablation,
    relax_replay_ablation,
    rounding_ablation,
    rounding_mode_ablation,
    sigma_ablation,
    topology_ablation,
    trace_ablation,
)

__all__ = ["main", "ABLATIONS", "run_ablations"]

ABLATIONS: dict[str, Callable[..., Table]] = {
    "sigma": sigma_ablation,
    "lambda": lambda_ablation,
    "rounding": rounding_ablation,
    "rounding-mode": rounding_mode_ablation,
    "topology": topology_ablation,
    "failures": failure_ablation,
    "online": online_ablation,
    "traces": trace_ablation,
    "relax-replay": relax_replay_ablation,
    "churn": churn_ablation,
    "churn-correlated": churn_correlated_ablation,
}


def run_ablations(names: Sequence[str], jobs: int) -> dict[str, Table]:
    """Run the named ablations, sharing one slot pool when possible.

    With more than one ablation and ``jobs > 1`` on a fork platform, each
    ablation runs on its own thread while a fork-inherited semaphore caps
    concurrently executing tasks at ``jobs`` — the shared pool that keeps
    every worker busy across ablation boundaries.  Results are keyed by
    name; tables are identical to a serial run (deterministic per-task
    seeding, in-order result collection per map).
    """
    shared = (
        len(names) > 1 and jobs > 1 and mp.get_start_method() == "fork"
    )
    if not shared:
        return {name: ABLATIONS[name](jobs=jobs) for name in names}
    with worker_slots(jobs):
        with ThreadPoolExecutor(max_workers=len(names)) as executor:
            futures = {
                name: executor.submit(ABLATIONS[name], jobs=jobs)
                for name in names
            }
            return {name: future.result() for name, future in futures.items()}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--which",
        choices=sorted(ABLATIONS) + ["all"],
        default="all",
        help="which ablation to run",
    )
    parser.add_argument(
        "--csv-dir", type=str, default=None, help="also write CSVs here"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shared worker slots (0 = all cores, 1 = serial)",
    )
    parser.add_argument(
        "--kernels",
        choices=("auto", "compiled", "python"),
        default=None,
        help="kernel backend (repro.kernels): auto picks numba when "
        "importable; overrides REPRO_KERNELS",
    )
    args = parser.parse_args(argv)
    if args.kernels is not None:
        kernels.set_backend(args.kernels)
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    jobs = args.jobs if args.jobs > 0 else available_parallelism()

    names = sorted(ABLATIONS) if args.which == "all" else [args.which]
    tables = run_ablations(names, jobs)
    for name in names:
        table = tables[name]
        print(table.render())
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
            path = os.path.join(args.csv_dir, f"ablation_{name}.csv")
            table.save_csv(path)
            print(f"wrote {path}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
