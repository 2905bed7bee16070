"""Experiment harness: one seeded repetition of the Figure-2 protocol.

Every experiment in this library boils down to: draw a workload, run some
algorithms, normalize energies by the fractional lower bound, aggregate
over repetitions.  :func:`single_run` is the unit of work — one
repetition, fully determined by its seed — and :class:`ComparisonPoint`
aggregates the runs at one sweep point.  Sweeps (Figure 2 and the
ablations) flatten their (point, run) grid onto :func:`single_run` and fan
it out over a process pool with
:func:`repro.experiments.parallel.grouped_map` when ``jobs > 1`` — results
are identical to the serial sweep, just faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, stdev
from typing import Callable, Mapping

import numpy as np

from repro.core.baselines import sp_mcf
from repro.core.dcfsr import solve_dcfsr
from repro.flows.flow import FlowSet
from repro.power.model import PowerModel
from repro.topology.base import Topology

__all__ = ["ComparisonPoint", "single_run"]


@dataclass(frozen=True)
class ComparisonPoint:
    """Aggregated normalized energies at one sweep point.

    ``ratios`` maps an algorithm name to per-run ``Phi_f / LB`` values;
    ``mean_ratio``/``std_ratio`` aggregate them.
    """

    label: str
    runs: int
    ratios: Mapping[str, tuple[float, ...]]

    def mean_ratio(self, name: str) -> float:
        return mean(self.ratios[name])

    def std_ratio(self, name: str) -> float:
        values = self.ratios[name]
        return stdev(values) if len(values) > 1 else 0.0


def single_run(
    topology: Topology,
    power: PowerModel,
    workload_factory: Callable[[int], FlowSet],
    seed: int,
    algorithms: Mapping[str, Callable] | None = None,
    fw_max_iterations: int = 40,
    fw_gap_tolerance: float = 3e-3,
) -> dict[str, float]:
    """One repetition of the Figure-2 protocol: algorithm -> ``Phi_f/LB``.

    Fully determined by its arguments (the rounding RNG is derived from
    ``seed``), which is what lets repetitions run in any order or process.
    """
    flows = workload_factory(seed)
    rs = solve_dcfsr(
        flows,
        topology,
        power,
        seed=np.random.default_rng(seed),
        fw_max_iterations=fw_max_iterations,
        fw_gap_tolerance=fw_gap_tolerance,
    )
    lb = rs.lower_bound
    ratios = {"RS": rs.energy.total / lb}
    sp = sp_mcf(flows, topology, power)
    ratios["SP+MCF"] = sp.energy.total / lb
    for name, fn in (algorithms or {}).items():
        ratios[name] = fn(flows, topology, power) / lb
    return ratios
