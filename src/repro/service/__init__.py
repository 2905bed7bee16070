"""Sharded streaming-replay service (DESIGN.md Section 11).

Production-shaped serving layer over the replay machinery: topology
partitioning along natural locality boundaries
(:mod:`~repro.service.partition`), and one service class,
:class:`~repro.service.sharded.ReplayService`: streaming admission of
flows and fault events, per-shard relaxation solves in long-lived worker
processes with asynchronously pipelined windows (each window's routes a
function of its inputs), per-window telemetry, degrade-under-pressure
backpressure (:mod:`~repro.service.degrade`), and snapshot/restore.
"""

from repro.service.degrade import SolveBudget
from repro.service.partition import (
    Shard,
    TopologyPartition,
    partition_topology,
)
from repro.service.sharded import ReplayService, WindowStats

__all__ = [
    "ReplayService",
    "SolveBudget",
    "Shard",
    "TopologyPartition",
    "partition_topology",
    "WindowStats",
]
