"""Sharded streaming-replay service (DESIGN.md Section 11).

Production-shaped serving layer over the replay machinery: topology
partitioning along natural locality boundaries
(:mod:`~repro.service.partition`), per-shard relaxation solves in
long-lived worker processes with asynchronously pipelined windows, each
window's routes a function of its inputs (:mod:`~repro.service.sharded`),
degrade-under-pressure backpressure
(:mod:`~repro.service.degrade`), and a snapshot/restore-capable admission
facade (:mod:`~repro.service.api`).
"""

from repro.service.api import ReplayService
from repro.service.degrade import DegradeController, SolveBudget
from repro.service.partition import (
    Shard,
    TopologyPartition,
    partition_topology,
)
from repro.service.sharded import ShardedReplayEngine, WindowStats

__all__ = [
    "ReplayService",
    "DegradeController",
    "SolveBudget",
    "Shard",
    "TopologyPartition",
    "partition_topology",
    "ShardedReplayEngine",
    "WindowStats",
]
