"""Deadline-constrained flows, interval grids, and workload generators."""

from repro.flows.flow import Flow, FlowSet
from repro.flows.intervals import Interval, TimeGrid
from repro.flows.workloads import incast, paper_workload, shuffle

__all__ = [
    "Flow",
    "FlowSet",
    "Interval",
    "TimeGrid",
    "paper_workload",
    "incast",
    "shuffle",
]
