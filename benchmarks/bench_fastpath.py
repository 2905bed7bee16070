"""Benchmark PERF-FASTPATH: the array-native routing core in isolation.

Times one marginal-cost route on the paper's k=8 fat-tree through each
engine — the networkx reference (per-edge Python weight callback) and
the :class:`FastRouter` hot path (bidirectional search) — plus the
:class:`LoadLedger` loads/commit cycle at a realistic
resident-ledger size, and one replay window's committed-load view: the
ledger seeded with the live pieces earlier windows left, next to the
background-profile build and per-flow gather it replaced (DESIGN.md
§20).  Guards the ~10x routing-core speedup the Online+Density replay
throughput depends on (see ``bench_traces.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from record import record_bench
from tests.oracles.paths import marginal_route_reference
from repro.flows import Flow
from repro.power import PowerModel
from repro.routing.fastpath import FastRouter, LoadLedger
from repro.scheduling.schedule import density_schedule
from repro.topology import fat_tree
from repro.traces.replay import WindowAccountant

TOPOLOGY = fat_tree(8)
RNG = np.random.default_rng(7)
MARGINAL = RNG.uniform(0.05, 2.0, TOPOLOGY.num_edges)
PAIRS = [
    tuple(TOPOLOGY.hosts[int(i)] for i in RNG.choice(len(TOPOLOGY.hosts), 2, False))
    for _ in range(64)
]


@pytest.mark.benchmark(group="fastpath-route")
def test_route_reference_networkx(benchmark):
    def run():
        for src, dst in PAIRS:
            marginal_route_reference(TOPOLOGY, src, dst, MARGINAL)

    benchmark.pedantic(run, rounds=3, iterations=1)


def _best_of(fn, *args, repeats=5) -> float:
    """Fastest of ``repeats`` timed calls of ``fn(*args)``, in seconds."""
    elapsed = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        elapsed = min(elapsed, time.perf_counter() - start)
    return elapsed


@pytest.mark.benchmark(group="fastpath-route")
def test_route_fast_router_churn(benchmark):
    """FastRouter under the online policy's access pattern: every route
    gets its own weight vector."""
    router = FastRouter(TOPOLOGY)
    variants = [np.maximum(MARGINAL * (1.0 + 0.01 * k), 1e-12) for k in range(8)]

    def run():
        for i, (src, dst) in enumerate(PAIRS):
            router.route(src, dst, variants[i % 8])

    benchmark.pedantic(run, rounds=3, iterations=5)
    elapsed = _best_of(run)
    record_bench(
        "fastpath_route",
        wall_clock_s=elapsed,
        topology=TOPOLOGY.name,
        extra={
            "routes": len(PAIRS),
            "us_per_route": 1e6 * elapsed / len(PAIRS),
        },
    )


@pytest.mark.benchmark(group="fastpath-ledger")
def test_ledger_loads_commit_cycle(benchmark):
    """One loads+commit cycle per flow at a ~6k-entry resident ledger —
    the steady state of a 1000-flow replay window on fat_tree(8)."""
    flows = []
    clock = 0.0
    for _ in range(1000):
        clock += float(RNG.exponential(0.01))
        span = float(RNG.uniform(5.0, 15.0))
        eids = RNG.choice(TOPOLOGY.num_edges, size=6, replace=False)
        flows.append((clock, clock + span, eids))

    def run():
        ledger = LoadLedger(TOPOLOGY)
        for start, end, eids in flows:
            ledger.loads(start, end)
            ledger.commit(eids, start, end, 0.3)

    benchmark.pedantic(run, rounds=3, iterations=1)


#: One replay window of the seeded-ledger case: its start, the flows
#: earlier windows left live across it, and the arrivals it prices.
WINDOW_START = 100.0
LIVE_FLOWS = 560
WINDOW_ARRIVALS = 100


def _live_window():
    """An accountant holding the ~3k live pieces an ``online-burst``
    window inherits (``LIVE_FLOWS`` density schedules that began by
    ``WINDOW_START`` and end after it), and the window's release-ordered
    ``(release, deadline)`` spans."""
    rng = np.random.default_rng(11)
    hosts = TOPOLOGY.hosts
    acct = WindowAccountant(TOPOLOGY, PowerModel.quadratic())
    for i in range(LIVE_FLOWS):
        src, dst = (hosts[int(j)] for j in rng.choice(len(hosts), 2, False))
        flow = Flow(
            id=i, src=src, dst=dst, size=float(rng.uniform(0.5, 5.0)),
            release=WINDOW_START - float(rng.uniform(0.0, 10.0)),
            deadline=WINDOW_START + float(rng.uniform(0.1, 10.0)),
        )
        acct.commit(density_schedule(flow, TOPOLOGY.shortest_path(src, dst)))
    releases = np.sort(WINDOW_START + rng.uniform(0.0, 1.0, WINDOW_ARRIVALS))
    deadlines = releases + rng.uniform(0.5, 10.0, WINDOW_ARRIVALS)
    return acct, list(zip(releases.tolist(), deadlines.tolist()))


def _seeded_rows(acct, spans):
    """The seeded ledger's view: one seed, then one ``loads`` per span."""
    ledger = LoadLedger(TOPOLOGY)
    ledger.seed(*acct.pieces)
    return np.array([ledger.loads(r, d) for r, d in spans])


def _profile_rows(acct, spans):
    """The view it replaced: one profile build, one ``means`` gather."""
    profile = acct.background_profile(WINDOW_START, WINDOW_START + 1.0)
    releases, deadlines = zip(*spans)
    return profile.means(releases, deadlines)


@pytest.mark.benchmark(group="fastpath-ledger")
def test_ledger_seeded_window(benchmark):
    """One window's committed-load view through the seeded ledger, with
    the profile build plus gather it replaced timed beside it; both
    must agree on every flow's row."""
    acct, spans = _live_window()
    seeded = benchmark.pedantic(
        _seeded_rows, args=(acct, spans), rounds=5, iterations=1
    )

    seeded_s = _best_of(_seeded_rows, acct, spans)
    profile_s = _best_of(_profile_rows, acct, spans)
    record_bench(
        "fastpath_ledger",
        wall_clock_s=seeded_s,
        topology=TOPOLOGY.name,
        extra={
            "live_pieces": len(acct.pieces[0]),
            "queries": len(spans),
            "profile_gather_s": profile_s,
            "speedup_vs_profile_gather": profile_s / seeded_s,
        },
    )
    np.testing.assert_allclose(
        seeded, _profile_rows(acct, spans), rtol=1e-9, atol=1e-12
    )
