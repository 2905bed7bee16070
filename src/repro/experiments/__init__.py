"""Experiments: the paper's Figure 2 and the library's ablations."""

from repro.experiments.ablations import (
    churn_ablation,
    churn_correlated_ablation,
    failure_ablation,
    lambda_ablation,
    online_ablation,
    rounding_ablation,
    rounding_mode_ablation,
    sigma_ablation,
    topology_ablation,
)
from repro.experiments.approximation import approximation_study
from repro.experiments.figure2 import (
    PAPER_FLOW_COUNTS,
    Figure2Result,
    figure2_table,
    run_figure2,
)
from repro.experiments.harness import ComparisonPoint, single_run
from repro.experiments.parallel import available_parallelism, parallel_map

__all__ = [
    "ComparisonPoint",
    "single_run",
    "parallel_map",
    "available_parallelism",
    "Figure2Result",
    "run_figure2",
    "figure2_table",
    "PAPER_FLOW_COUNTS",
    "sigma_ablation",
    "lambda_ablation",
    "rounding_ablation",
    "rounding_mode_ablation",
    "topology_ablation",
    "failure_ablation",
    "online_ablation",
    "churn_ablation",
    "churn_correlated_ablation",
    "approximation_study",
]
