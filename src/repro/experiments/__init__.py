"""Experiments: the paper's Figure 2 and the library's ablations.

Figure 2 lives in :mod:`repro.experiments.figure2`, which is also a
script (``python -m repro.experiments.figure2``); import it from there.
The package does not import it, so running the script never finds it
already loaded.
"""

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
from repro.experiments.harness import ComparisonPoint, single_run
from repro.experiments.parallel import available_parallelism, parallel_map

__all__ = [
    "ComparisonPoint",
    "single_run",
    "parallel_map",
    "available_parallelism",
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
