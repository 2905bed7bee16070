"""Analysis utilities: metrics, reporting and validation.

The scipy reference solvers of programs (P1) and F-MCF are test oracles
and live in ``tests/oracles/convex.py``, so nothing under ``repro``
loads :mod:`scipy.optimize`.
"""

from repro.analysis.gantt import render_link_sparklines
from repro.analysis.metrics import ScheduleMetrics, compute_metrics, jain_index
from repro.analysis.reporting import Table, ascii_bar
from repro.analysis.validation import ValidationOutcome, validate_result

__all__ = [
    "render_link_sparklines",
    "ValidationOutcome",
    "validate_result",
    "ScheduleMetrics",
    "compute_metrics",
    "jain_index",
    "Table",
    "ascii_bar",
]
