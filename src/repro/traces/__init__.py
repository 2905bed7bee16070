"""Trace-driven workloads and sliding-horizon online replay.

The offline algorithms of :mod:`repro.core` see a whole flow set at once;
this package is the serving-side counterpart (DESIGN.md Section 6): seeded
arrival-process generators that emit million-flow traces lazily, a
streaming JSONL/CSV trace store, and a windowed replay engine that feeds
each epoch to a pluggable scheduling policy while carrying committed
reservations across window boundaries.
"""

from repro.traces.arrivals import (
    ArrivalProcess,
    DiurnalProcess,
    MarkovModulatedProcess,
    PoissonProcess,
)
from repro.traces.generator import TraceSpec, generate_trace, materialize
from repro.traces.policies import (
    EpochDcfsPolicy,
    GreedyDensityPolicy,
    LeastLoadedPolicy,
    OnlineDensityPolicy,
    PowerOfTwoPolicy,
    RelaxationRoundingPolicy,
    ReplayPolicy,
    WindowContext,
)
from repro.traces.repair import ChurnManager
from repro.traces.replay import (
    ReplayEngine,
    ReplayReport,
    ShardStats,
    WindowAccountant,
)
from repro.traces.sizes import (
    lognormal_sizes,
    pareto_sizes,
    proportional_slack,
    uniform_sizes,
    uniform_slack,
)
from repro.traces.store import (
    TRACE_VERSION,
    TraceReader,
    read_trace_csv,
    read_trace_faults,
    read_trace_jsonl,
    write_trace_csv,
    write_trace_jsonl,
)

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "MarkovModulatedProcess",
    "DiurnalProcess",
    "TraceSpec",
    "generate_trace",
    "materialize",
    "pareto_sizes",
    "lognormal_sizes",
    "uniform_sizes",
    "proportional_slack",
    "uniform_slack",
    "TRACE_VERSION",
    "TraceReader",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "read_trace_faults",
    "write_trace_csv",
    "read_trace_csv",
    "ChurnManager",
    "ReplayPolicy",
    "WindowContext",
    "GreedyDensityPolicy",
    "PowerOfTwoPolicy",
    "LeastLoadedPolicy",
    "OnlineDensityPolicy",
    "EpochDcfsPolicy",
    "RelaxationRoundingPolicy",
    "ReplayEngine",
    "ReplayReport",
    "ShardStats",
    "WindowAccountant",
]
