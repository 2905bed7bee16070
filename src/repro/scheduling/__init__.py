"""Scheduling substrate: timelines, schedules, YDS, EDF."""

from repro.scheduling.edf import (
    EdfJob,
    edf_schedule,
    edf_schedule_arrays,
    edf_schedule_reference,
)
from repro.scheduling.schedule import (
    EnergyBreakdown,
    FeasibilityReport,
    FlowSchedule,
    Schedule,
    Segment,
)
from repro.scheduling.timeline import (
    PiecewiseConstant,
    merge_segments,
    overlap_length,
)
from repro.scheduling.yds import (
    YdsJob,
    YdsResult,
    contained_indices,
    critical_interval,
    critical_interval_arrays,
    critical_interval_batch,
    critical_interval_reference,
    yds_schedule,
)

__all__ = [
    "EdfJob",
    "edf_schedule",
    "edf_schedule_arrays",
    "edf_schedule_reference",
    "Segment",
    "FlowSchedule",
    "Schedule",
    "EnergyBreakdown",
    "FeasibilityReport",
    "PiecewiseConstant",
    "merge_segments",
    "overlap_length",
    "YdsJob",
    "YdsResult",
    "yds_schedule",
    "contained_indices",
    "critical_interval",
    "critical_interval_arrays",
    "critical_interval_batch",
    "critical_interval_reference",
]
