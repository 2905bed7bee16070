"""Analysis utilities: metrics, reporting and validation.

The scipy reference solvers live in :mod:`repro.analysis.convex` and are
imported from there, so that importing this package (which every replay
process does, through :mod:`repro.analysis.reporting`) never loads
:mod:`scipy.optimize`.
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
