"""Tests for the sharded streaming-replay service (service/sharded.py).

The load-bearing pins:

* greedy mode is **bit-for-bit** identical to the single-owner
  :class:`ReplayEngine` driving :class:`GreedyDensityPolicy` — same
  accountant, same verdicts, same float accumulation order;
* a run that is snapshotted mid-trace and restored into a fresh process
  produces the *same report* as the uninterrupted run; a refused restore
  leaves no worker process behind, and a checkpoint write that fails
  leaves the previous checkpoint intact;
* a relax-mode run whose worker is killed mid-trace recovers to the same
  report as the uncrashed run: a window's routes are a function of its
  message, never of worker state;
* the shard workers run the replay policies, so a lit shard with a dead
  local link spends what the single engine spends on that shard;
* degrade-under-pressure is recorded honestly (the report says which
  windows fell back to greedy).
"""

from __future__ import annotations

import dataclasses
import errno
import multiprocessing as mp
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.sharded as sharded
from repro.errors import ValidationError
from repro.flows import Flow
from repro.power import PowerModel
from repro.service import ReplayService, SolveBudget, partition_topology
from repro.sim import FaultEvent, FaultSchedule
from repro.traces import (
    GreedyDensityPolicy,
    PoissonProcess,
    RelaxationRoundingPolicy,
    ReplayEngine,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
    write_trace_jsonl,
)
from repro.topology import fat_tree, leaf_spine
from repro.topology.base import path_edges

# The thirteen report fields the sharded greedy engine pins exactly to
# the single-owner engine (policy/name and solve timings excluded).
PINNED_FIELDS = (
    "window",
    "windows",
    "horizon",
    "flows_seen",
    "flows_served",
    "deadline_misses",
    "unserved",
    "volume_offered",
    "volume_delivered",
    "idle_energy",
    "dynamic_energy",
    "active_links",
    "peak_link_rate",
    "capacity_violations",
)


def _trace(topology, n, seed, rate=4.0):
    spec = TraceSpec(
        arrivals=PoissonProcess(rate),
        duration=max(4.0, n / rate),
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=seed,
    )
    return [f for _, f in zip(range(n), generate_trace(topology, spec))]


def _pinned(report):
    return {name: getattr(report, name) for name in PINNED_FIELDS}


def _normalized(report):
    """Report with wall-clock solve timings zeroed (everything else kept)."""
    stats = None
    if report.shard_stats is not None:
        stats = tuple(
            dataclasses.replace(s, solve_s=0.0) for s in report.shard_stats
        )
    return dataclasses.replace(report, shard_stats=stats)


def _live_children() -> set[int]:
    return {p.pid for p in mp.active_children() if p.is_alive()}


def _swapped_shards(partition):
    """``partition`` with its two shards' indices exchanged."""
    first, second = partition.shards
    return dataclasses.replace(
        partition,
        shards=(
            dataclasses.replace(second, index=0),
            dataclasses.replace(first, index=1),
        ),
        node_component={
            node: (1 - shard, comp)
            for node, (shard, comp) in partition.node_component.items()
        },
    )


def _refuse(topology, state, refusal):
    """Break a 2-shard snapshot payload the way ``refusal`` names; returns
    the restore keyword arguments and the error the restore must raise."""
    if refusal == "partition":
        return (
            {"partition": partition_topology(topology, num_shards=4)},
            ValidationError,
            "partition yields 4 shards; snapshot had 2",
        )
    if refusal == "swapped-shards":
        partition = partition_topology(topology, num_shards=2)
        return (
            {"partition": _swapped_shards(partition)},
            ValidationError,
            "partition differs from the snapshot's",
        )
    service = state["service"]
    state["service"] = service[: len(service) // 2]
    return {}, pickle.UnpicklingError, "truncated"


class _HalfWriter:
    """Write handle that stores half of what it is given, then fails
    with ENOSPC — a disk filling up mid-write."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def __enter__(self) -> "_HalfWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def write(self, data) -> int:
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _disk_full_open(file, mode="r", *args, **kwargs):
    handle = open(file, mode, *args, **kwargs)
    return _HalfWriter(handle) if "w" in mode else handle


class TestGreedyBitForBit:
    @pytest.mark.parametrize("fixture", ["ft4", "small_leafspine"])
    def test_matches_single_owner_engine(self, fixture, powerdown, request):
        topology = request.getfixturevalue(fixture)
        flows = _trace(topology, 80, seed=3)
        baseline = ReplayEngine(
            topology, powerdown, GreedyDensityPolicy(), window=1.0
        ).run(flows)
        with ReplayService(
            topology, powerdown, window=1.0, mode="greedy"
        ) as engine:
            sharded = engine.run(flows)
        assert _pinned(sharded) == _pinned(baseline)

    def test_dead_local_link_matches_single_owner_engine(
        self, ft4, quadratic
    ):
        """A shard worker with a dead local link runs Greedy+Density on
        its survivor routes, as the single engine does on the fabric."""
        flows = _trace(ft4, 80, seed=3)

        def faults():
            return FaultSchedule.scripted(
                [(-1.0, "down", ("sw_a_p00_0", "sw_e_p00_1"))]
            )

        baseline = ReplayEngine(
            ft4, quadratic, GreedyDensityPolicy(), window=1.0,
            faults=faults(),
        ).run(flows)
        with ReplayService(
            ft4, quadratic, window=1.0, mode="greedy", faults=faults()
        ) as engine:
            sharded = engine.run(flows)
        assert sharded.link_failures == 1
        assert _pinned(sharded) == _pinned(baseline)

    def test_pipeline_depth_does_not_change_results(self, ft4, quadratic):
        flows = _trace(ft4, 60, seed=11)
        reports = []
        for depth in (1, 3):
            with ReplayService(
                ft4, quadratic, window=1.0, mode="greedy", pipeline_depth=depth
            ) as engine:
                reports.append(engine.run(flows))
        assert _pinned(reports[0]) == _pinned(reports[1])


# Hypothesis pin: all-intra-shard traffic on the two natural-boundary
# fabrics must match the unsharded engine verdict for verdict.
FABRICS = {
    "fat_tree4": fat_tree(4),
    "leaf_spine": leaf_spine(2, 2, hosts_per_leaf=3),
}
POWER = PowerModel.quadratic()


def _hosts_by_group(topology):
    groups: dict[str, list[str]] = {}
    for host in topology.hosts:
        groups.setdefault(topology.node_groups[host], []).append(host)
    return [members for _, members in sorted(groups.items())]


@st.composite
def intra_shard_workloads(draw):
    name = draw(st.sampled_from(sorted(FABRICS)))
    topology = FABRICS[name]
    groups = _hosts_by_group(topology)
    n = draw(st.integers(2, 7))
    flows = []
    release = 0.0
    for i in range(n):
        release += draw(st.floats(0.0, 2.0, allow_nan=False))
        members = groups[draw(st.integers(0, len(groups) - 1))]
        src, dst = draw(
            st.lists(
                st.sampled_from(members), min_size=2, max_size=2, unique=True
            )
        )
        flows.append(
            Flow(
                id=i,
                src=src,
                dst=dst,
                size=draw(st.floats(0.5, 8.0, allow_nan=False)),
                release=release,
                deadline=release + draw(st.floats(0.5, 6.0, allow_nan=False)),
            )
        )
    return topology, flows


class TestIntraShardPin:
    @settings(max_examples=15, deadline=None)
    @given(case=intra_shard_workloads())
    def test_verdicts_match_unsharded_engine(self, case):
        topology, flows = case
        baseline = ReplayEngine(
            topology, POWER, GreedyDensityPolicy(), window=1.5
        ).run(flows)
        with ReplayService(
            topology, POWER, window=1.5, mode="greedy"
        ) as engine:
            sharded = engine.run(flows)
        assert _pinned(sharded) == _pinned(baseline)
        # Every flow stayed inside its shard: the cross-shard lane is empty.
        cross = next(
            s for s in sharded.shard_stats if s.shard == "cross-shard"
        )
        assert cross.flows == 0


@st.composite
def same_leaf_workloads(draw):
    """Same-leaf pairs on the leaf-spine fabric: every flow's shortest
    path (host - leaf - host) is unique, so relaxation + rounding is
    forced onto the same schedules the single-owner engine commits and
    the pin isolates the background-profile exchange itself."""
    topology = FABRICS["leaf_spine"]
    groups = _hosts_by_group(topology)
    n = draw(st.integers(2, 8))
    flows = []
    release = 0.0
    for i in range(n):
        release += draw(st.floats(0.0, 1.5, allow_nan=False))
        members = groups[draw(st.integers(0, len(groups) - 1))]
        src, dst = draw(
            st.lists(
                st.sampled_from(members), min_size=2, max_size=2, unique=True
            )
        )
        flows.append(
            Flow(
                id=i,
                src=src,
                dst=dst,
                size=draw(st.floats(0.5, 6.0, allow_nan=False)),
                release=release,
                deadline=release + draw(st.floats(0.5, 5.0, allow_nan=False)),
            )
        )
    return topology, flows


class TestIntervalProfileExchange:
    """The PR-7 boundary-load exchange ships BackgroundProfile
    restrictions instead of flat vectors; these pin it end to end."""

    @settings(max_examples=12, deadline=None)
    @given(case=same_leaf_workloads())
    def test_relax_with_profiles_matches_unsharded_engine(self, case):
        topology, flows = case
        baseline = ReplayEngine(
            topology,
            POWER,
            RelaxationRoundingPolicy(
                seed=0, fw_max_iterations=12, rounding="deterministic"
            ),
            window=1.5,
        ).run(flows)
        with ReplayService(
            topology,
            POWER,
            window=1.5,
            mode="relax",
            seed=0,
            fw_max_iterations=12,
            rounding="deterministic",
            pipeline_depth=1,
        ) as engine:
            sharded = engine.run(flows)
        assert _pinned(sharded) == _pinned(baseline)


class TestSnapshotRestore:
    @pytest.mark.parametrize("cut", [1, 25, 55])
    def test_greedy_restore_is_bit_identical(self, ft4, powerdown, cut):
        flows = _trace(ft4, 70, seed=5)
        with ReplayService(
            ft4, powerdown, window=1.0, mode="greedy"
        ) as engine:
            uninterrupted = engine.run(flows)
        with ReplayService(
            ft4, powerdown, window=1.0, mode="greedy"
        ) as first:
            for flow in flows[:cut]:
                first.submit(flow)
            state = first.snapshot()
        restored = ReplayService.restore(ft4, powerdown, state)
        try:
            for flow in flows[cut:]:
                restored.submit(flow)
            resumed = restored.drain()
        finally:
            restored.close()
        assert _normalized(resumed) == _normalized(uninterrupted)

    def test_relax_restore_is_bit_identical(self, small_leafspine, quadratic):
        flows = _trace(small_leafspine, 30, seed=9)
        kwargs = dict(
            window=1.0, mode="relax", seed=4, fw_max_iterations=12
        )
        with ReplayService(
            small_leafspine, quadratic, **kwargs
        ) as engine:
            uninterrupted = engine.run(flows)
        with ReplayService(
            small_leafspine, quadratic, **kwargs
        ) as first:
            for flow in flows[:13]:
                first.submit(flow)
            state = first.snapshot()
        restored = ReplayService.restore(
            small_leafspine, quadratic, state
        )
        try:
            for flow in flows[13:]:
                restored.submit(flow)
            resumed = restored.drain()
        finally:
            restored.close()
        assert _normalized(resumed) == _normalized(uninterrupted)

    def test_relax_restore_with_link_faults_is_bit_identical(
        self, ft4, quadratic
    ):
        """Inline link faults on both sides of the cut: a core link is
        down when the snapshot is taken, and a pod link fails after the
        restore.  The parent's repair router and its cross-shard router
        both route after the restore, and the resumed report equals the
        uninterrupted one."""
        flows = _trace(ft4, 60, seed=3)
        t_cut = flows[30].release
        edges = path_edges(ft4.shortest_path(ft4.hosts[0], ft4.hosts[-1]))
        core_link, pod_link = edges[2], edges[1]
        faults = FaultSchedule.scripted([
            (t_cut - 4.0, "down", core_link),
            (t_cut + 3.0, "up", core_link),
            (t_cut + 1.0, "down", pod_link),
            (t_cut + 5.0, "up", pod_link),
        ])
        stream = sorted(
            [*flows, *faults],
            key=lambda x: x.time if isinstance(x, FaultEvent) else x.release,
        )
        split = stream.index(flows[30])
        kwargs = dict(
            window=1.0, num_shards=2, mode="relax", seed=4,
            fw_max_iterations=12,
        )

        def feed(engine, items):
            for item in items:
                if isinstance(item, FaultEvent):
                    engine.submit_fault(item)
                else:
                    engine.submit(item)

        with ReplayService(ft4, quadratic, **kwargs) as engine:
            uninterrupted = engine.run(stream)
        with ReplayService(ft4, quadratic, **kwargs) as first:
            feed(first, stream[:split])
            state = first.snapshot()
        restored = ReplayService.restore(ft4, quadratic, state)
        try:
            feed(restored, stream[split:])
            resumed = restored.drain()
        finally:
            restored.close()
        churn = first._loop.churn
        assert churn.down
        rerouted_before = churn.flows_rerouted
        assert 0 < rerouted_before < uninterrupted.flows_rerouted
        assert _normalized(resumed) == _normalized(uninterrupted)

    def test_payload_leaves_out_the_fabric_and_the_workers(
        self, ft4, quadratic, monkeypatch
    ):
        """The engine payload resolves no topology, networkx or worker
        class: the restored loop, accountant, churn manager and routers
        hold the caller's topology object."""
        flows = _trace(ft4, 60, seed=3)
        edges = path_edges(ft4.shortest_path(ft4.hosts[0], ft4.hosts[-1]))
        faults = FaultSchedule.scripted(
            [(flows[10].release, "down", edges[2])]
        )
        resolved = []

        class Recording(sharded._ServiceUnpickler):
            def find_class(self, module, name):
                resolved.append(f"{module}.{name}")
                return super().find_class(module, name)

        monkeypatch.setattr(sharded, "_ServiceUnpickler", Recording)
        with ReplayService(
            ft4, quadratic, window=1.0, num_shards=2, mode="relax",
            fw_max_iterations=12, faults=faults,
        ) as engine:
            for flow in flows[:40]:
                engine.submit(flow)
            state = engine.snapshot()
        with ReplayService.restore(
            ft4, quadratic, state
        ) as restored:
            loop = restored._loop
            assert loop.topology is ft4
            assert loop.acct.topology is ft4
            assert loop.churn._topology is ft4
            assert loop.churn._router.topology is ft4
            router = restored._cross_policy._router
            assert router.topology is ft4
            # A router pickles as its topology: no search scratch rides.
            assert engine._cross_policy._router._epoch > router._epoch == 0
        assert "repro.routing.fastpath.FastRouter" in resolved
        assert "repro.topology.base.Topology" not in resolved
        assert not [name for name in resolved if name.startswith("networkx")]
        assert not [name for name in resolved if "WorkerGroup" in name]

    def test_restore_rejects_wrong_topology(self, ft4, quadratic):
        with ReplayService(
            ft4, quadratic, window=1.0, mode="greedy"
        ) as engine:
            engine.submit(_trace(ft4, 5, seed=0)[0])
            state = engine.snapshot()
        other = fat_tree(6)
        with pytest.raises(ValidationError):
            ReplayService.restore(other, quadratic, state)
        # The same edge count over other links is another fabric too.
        same_size = leaf_spine(8, 4, 2)
        assert same_size.num_edges == ft4.num_edges
        with pytest.raises(ValidationError, match="snapshot was taken on"):
            ReplayService.restore(same_size, quadratic, state)

    @staticmethod
    def _two_shard_state(ft4, quadratic):
        with ReplayService(
            ft4, quadratic, window=1.0, num_shards=2, mode="greedy"
        ) as engine:
            for flow in _trace(ft4, 10, seed=1):
                engine.submit(flow)
            return pickle.loads(engine.snapshot())

    @pytest.mark.parametrize(
        "refusal", ["partition", "swapped-shards", "loop-payload"]
    )
    def test_refused_restore_leaks_no_workers(self, ft4, quadratic, refusal):
        """A restore refused after the engine forked its workers must
        close them."""
        state = self._two_shard_state(ft4, quadratic)
        kwargs, error, match = _refuse(ft4, state, refusal)
        before = _live_children()
        with pytest.raises(error, match=match) as info:
            ReplayService.restore(
                ft4, quadratic, pickle.dumps(state), **kwargs
            )
        # ``info`` keeps the traceback (and its frames) alive: closing
        # must not rely on garbage collection.
        assert not _live_children() - before, info

    @pytest.mark.parametrize(
        "refusal", ["partition", "swapped-shards", "loop-payload"]
    )
    def test_service_refused_restore_leaks_no_workers(
        self, ft4, quadratic, refusal
    ):
        with ReplayService(
            ft4, quadratic, window=1.0, num_shards=2, mode="greedy"
        ) as service:
            service.submit_many(_trace(ft4, 10, seed=1))
            payload = pickle.loads(service.snapshot())
        kwargs, error, match = _refuse(ft4, payload, refusal)
        before = _live_children()
        with pytest.raises(error, match=match) as info:
            ReplayService.restore(
                ft4, quadratic, pickle.dumps(payload), **kwargs
            )
        assert not _live_children() - before, info

    def test_restore_rejects_another_power_model(self, ft4, quadratic):
        """The accountant integrated energy under the snapshot's power
        model: a restore under another one is refused, before any
        worker forks."""
        state = self._two_shard_state(ft4, quadratic)
        before = _live_children()
        with pytest.raises(ValidationError, match="snapshot was taken under"):
            ReplayService.restore(
                ft4, PowerModel.quadratic(capacity=0.5), pickle.dumps(state)
            )
        assert not _live_children() - before

    def test_restore_rejects_old_snapshot_version(self, ft4, quadratic):
        state = self._two_shard_state(ft4, quadratic)
        state["version"] = 5
        with pytest.raises(
            ValidationError, match="unsupported snapshot version 5"
        ):
            ReplayService.restore(ft4, quadratic, pickle.dumps(state))


class TestRelaxMode:
    def test_deterministic_and_beats_greedy_energy(self, ft4, quadratic):
        flows = _trace(ft4, 60, seed=21)
        kwargs = dict(window=1.0, mode="relax", seed=2, fw_max_iterations=20)
        reports = []
        for _ in range(2):
            with ReplayService(ft4, quadratic, **kwargs) as engine:
                reports.append(engine.run(flows))
        assert _normalized(reports[0]) == _normalized(reports[1])
        with ReplayService(
            ft4, quadratic, window=1.0, mode="greedy"
        ) as engine:
            greedy = engine.run(flows)
        relax = reports[0]
        assert relax.flows_served >= greedy.flows_served
        assert relax.dynamic_energy < greedy.dynamic_energy
        assert relax.capacity_violations == 0

    def test_summary_has_per_shard_breakdown(self, ft4, quadratic):
        flows = _trace(ft4, 40, seed=13)
        with ReplayService(
            ft4, quadratic, window=1.0, mode="greedy"
        ) as engine:
            report = engine.run(flows)
        text = report.summary()
        assert "shard0[pod00]" in text
        assert "cross-shard" in text
        assert report.shard_stats is not None
        assert sum(s.flows for s in report.shard_stats) == report.flows_served


class TestShardRunsThePolicy:
    def test_lit_shard_with_a_dead_link_solves_its_survivor_subgraph(
        self, quadratic
    ):
        """A lit shard with a dead local link runs Relax+Round on its
        survivor subgraph, so the service spends what the single engine
        spends on that shard (1637.843).  Relaxing on the intact shard
        and swapping survivor BFS routes onto the flows that cross the
        dead link spends 2726.164."""
        topology = fat_tree(8)
        flows = [
            Flow(
                id=i,
                src=f"h_p00_e0_{i % 4}",
                dst=f"h_p00_e1_{(i // 4) % 4}",
                size=1 + 0.1 * i,
                release=0.01 * i,
                deadline=2 + 0.01 * i,
            )
            for i in range(24)
        ]

        def faults():
            return FaultSchedule.scripted(
                [(-1.0, "down", ("sw_a_p00_0", "sw_e_p00_0"))]
            )

        with ReplayService(
            topology,
            quadratic,
            window=1.0,
            num_shards=2,
            mode="relax",
            rounding="deterministic",
            pipeline_depth=1,
            seed=3,
            faults=faults(),
        ) as engine:
            sharded = engine.run(flows)
        shard = next(
            s for s in engine.partition.shards if "pod00" in s.groups
        )
        single = ReplayEngine(
            shard.topology,
            quadratic,
            RelaxationRoundingPolicy(seed=3, rounding="deterministic"),
            window=1.0,
            faults=faults(),
        ).run(flows)
        assert sharded.flows_served == single.flows_served == len(flows)
        assert sharded.total_energy == pytest.approx(
            single.total_energy, rel=1e-9
        )


class TestCrashRecovery:
    @pytest.mark.parametrize("rounding", ["random", "deterministic"])
    def test_relax_kill_matches_uncrashed_run(self, ft4, quadratic, rounding):
        """A worker killed mid-trace restarts with no warm state and
        re-solves its uncollected windows as they were sent: the report
        equals the uncrashed run's, bar the restart count and timings,
        with no window degraded."""
        flows = _trace(ft4, 60, seed=17)
        kwargs = dict(
            window=1.0,
            num_shards=2,
            mode="relax",
            seed=3,
            fw_max_iterations=15,
            rounding=rounding,
        )
        with ReplayService(ft4, quadratic, **kwargs) as engine:
            uncrashed = engine.run(flows)
        with ReplayService(ft4, quadratic, **kwargs) as engine:
            for i, flow in enumerate(flows):
                engine.submit(flow)
                if i == len(flows) // 2:
                    engine.inject_worker_crash(0)
            recovered = engine.drain()
        assert recovered.worker_restarts == 1
        assert recovered.degraded_windows == 0
        assert dataclasses.replace(
            _normalized(recovered), worker_restarts=0
        ) == _normalized(uncrashed)


class TestDegrade:
    def test_zero_budget_degrades_and_recovers(self, ft4, quadratic):
        flows = _trace(ft4, 60, seed=17)
        with ReplayService(
            ft4,
            quadratic,
            window=1.0,
            mode="relax",
            fw_max_iterations=15,
            budget=SolveBudget(per_window_s=0.0),
        ) as engine:
            report = engine.run(flows)
        # Honest accounting: some windows degraded, and the probing
        # recovery means not every window did.
        assert 0 < report.degraded_windows < report.windows
        assert "degraded to greedy" in report.summary()

    def test_queue_depth_trigger(self, ft4, quadratic):
        flows = _trace(ft4, 60, seed=17)
        with ReplayService(
            ft4,
            quadratic,
            window=1.0,
            mode="relax",
            fw_max_iterations=15,
            budget=SolveBudget(max_in_flight=0),
        ) as engine:
            report = engine.run(flows)
        assert report.degraded_windows > 0

    def test_unlimited_budget_never_degrades(self, ft4, quadratic):
        flows = _trace(ft4, 30, seed=17)
        with ReplayService(
            ft4, quadratic, window=1.0, mode="relax", fw_max_iterations=10
        ) as engine:
            report = engine.run(flows)
        assert report.degraded_windows == 0

    def test_budget_validation(self):
        with pytest.raises(ValidationError):
            SolveBudget(per_window_s=-1.0)
        with pytest.raises(ValidationError):
            SolveBudget(max_in_flight=-3)


# Settings a healthy run cannot honour: a zero or negative heartbeat
# declares live workers dead, NaN breaks the collect timeout, a seed
# that is no integer >= 0 cannot seed a rounding stream, a NaN budget
# never triggers, and a pipeline depth that is no integer >= 1 never
# collects a window before drain (NaN, inf) or runs as another depth.
_BAD_SERVICE_SETTINGS = {
    "heartbeat-zero": {"heartbeat_s": 0.0},
    "heartbeat-negative": {"heartbeat_s": -1.0},
    "heartbeat-nan": {"heartbeat_s": float("nan")},
    "heartbeat-inf": {"heartbeat_s": float("inf")},
    "seed-negative": {"seed": -1},
    "seed-fractional": {"seed": 1.5},
    "seed-string": {"seed": "x"},
    "budget-nan": {"per_window_s": float("nan")},
    "in-flight-nan": {"max_in_flight": float("nan")},
    "in-flight-fractional": {"max_in_flight": 1.5},
    "depth-nan": {"pipeline_depth": float("nan")},
    "depth-inf": {"pipeline_depth": float("inf")},
    "depth-fractional": {"pipeline_depth": 1.5},
    "depth-string": {"pipeline_depth": "2"},
}


class TestSettingsValidation:
    @pytest.mark.parametrize("case", sorted(_BAD_SERVICE_SETTINGS))
    def test_bad_settings_fail_before_workers_fork(
        self, ft4, quadratic, case
    ):
        kwargs = dict(_BAD_SERVICE_SETTINGS[case])
        before = _live_children()
        with pytest.raises(ValidationError):
            if kwargs.keys() & {"per_window_s", "max_in_flight"}:
                kwargs = {"budget": SolveBudget(**kwargs)}
            ReplayService(
                ft4, quadratic, window=1.0, num_shards=2, **kwargs
            ).close()
        assert not _live_children() - before


def _ingest_case(topology, case):
    h0, h1 = topology.hosts[0], topology.hosts[1]
    releases, ids = {
        "unsorted": ((5.0, 1.0), (0, 1)),
        "empty": ((), ()),
        "duplicate-ids": ((0.0, 0.5), (0, 0)),
    }[case]
    return [
        Flow(id=i, src=h0, dst=h1, size=1.0, release=r, deadline=r + 2.0)
        for r, i in zip(releases, ids)
    ]


class TestIngestValidation:
    @pytest.mark.parametrize("case", ["unsorted", "empty", "duplicate-ids"])
    def test_engines_reject_alike(self, ft4, quadratic, case):
        """Both executors share the loop's ingest checks, so a malformed
        stream fails with the same message either way."""
        flows = _ingest_case(ft4, case)
        with pytest.raises(ValidationError) as inline:
            ReplayEngine(
                ft4, quadratic, GreedyDensityPolicy(), window=1.0
            ).run(iter(flows))
        with ReplayService(
            ft4, quadratic, window=1.0, mode="greedy"
        ) as engine:
            with pytest.raises(ValidationError) as sharded:
                engine.run(iter(flows))
        assert str(sharded.value) == str(inline.value)


#: Every way to hand a service work, each called as ``(service, flows,
#: trace_path)`` once the service has ended.
_AFTER_THE_END = {
    "submit-flow": lambda svc, flows, path: svc.submit(flows[5]),
    "submit-link-fault": lambda svc, flows, path: svc.submit_fault(
        FaultEvent(
            time=flows[5].release,
            kind="link_down",
            edge=("sw_a_p00_0", "sw_e_p00_1"),
        )
    ),
    "submit-worker-crash": lambda svc, flows, path: svc.submit_fault(
        FaultEvent(time=flows[5].release, kind="worker_crash", shard=0)
    ),
    "submit-many": lambda svc, flows, path: svc.submit_many(flows[5:]),
    "serve-trace": lambda svc, flows, path: svc.serve_trace(path),
    "inject-worker-crash": lambda svc, flows, path: (
        svc.inject_worker_crash(0)
    ),
    "snapshot": lambda svc, flows, path: svc.snapshot(),
    "drain": lambda svc, flows, path: svc.drain(),
}


class TestReplayService:
    def test_live_flow_id_reuse_rejected(self, ft4, quadratic):
        """A flow reusing the id of one still transmitting is rejected
        when its window commits, after the pipeline lag, as inline."""
        h = ft4.hosts
        flows = [
            Flow(id="a", src=h[0], dst=h[-1], size=10.0,
                 release=0.0, deadline=10.0),
            Flow(id="a", src=h[1], dst=h[-1], size=1.0,
                 release=2.5, deadline=4.0),
        ]
        with ReplayService(
            ft4, quadratic, window=1.0, num_shards=2, mode="greedy"
        ) as service:
            with pytest.raises(ValidationError, match="'a'"):
                service.submit_many(flows)
                service.drain()

    def test_submit_poll_drain(self, ft4, quadratic):
        flows = _trace(ft4, 50, seed=8)
        with ReplayService(
            ft4, quadratic, window=1.0, mode="greedy"
        ) as service:
            assert service.submit_many(flows[:40]) == 40
            seen = service.poll()
            assert all(w.arrivals >= 0 for w in seen)
            later = service.poll()
            # poll() is a cursor: already-reported windows do not repeat.
            assert not set(w.index for w in seen) & set(
                w.index for w in later
            )
            service.submit_many(flows[40:])
            report = service.drain()
        assert report.flows_seen == 50

    def test_snapshot_restore_round_trip(self, ft4, powerdown, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        flows = _trace(ft4, 60, seed=15)
        write_trace_jsonl(flows, trace_path)

        with ReplayService(
            ft4, powerdown, window=1.0, mode="greedy"
        ) as service:
            service.serve_trace(trace_path)
            uninterrupted = service.drain()

        service = ReplayService(ft4, powerdown, window=1.0, mode="greedy")
        served = service.serve_trace(trace_path, limit=25)
        assert served == 25
        blob_path = str(tmp_path / "service.snap")
        service.snapshot(blob_path)
        service.close()

        resumed = ReplayService.restore(ft4, powerdown, blob_path)
        try:
            assert resumed.flows_submitted == 25
            resumed.resume_trace()
            report = resumed.drain()
        finally:
            resumed.close()
        assert _normalized(report) == _normalized(uninterrupted)

    def test_failed_snapshot_write_keeps_previous_checkpoint(
        self, ft4, powerdown, tmp_path, monkeypatch
    ):
        flows = _trace(ft4, 60, seed=15)
        with ReplayService(
            ft4, powerdown, window=1.0, mode="greedy"
        ) as service:
            service.submit_many(flows)
            uninterrupted = service.drain()

        blob_path = str(tmp_path / "service.snap")
        with ReplayService(
            ft4, powerdown, window=1.0, mode="greedy"
        ) as service:
            service.submit_many(flows[:25])
            service.snapshot(blob_path)
            service.submit_many(flows[25:40])
            # The disk fills up halfway through the next checkpoint.
            monkeypatch.setattr(
                sharded, "open", _disk_full_open, raising=False
            )
            with pytest.raises(OSError) as info:
                service.snapshot(blob_path)
            assert info.value.errno == errno.ENOSPC
            monkeypatch.undo()
        assert os.listdir(tmp_path) == ["service.snap"]

        resumed = ReplayService.restore(ft4, powerdown, blob_path)
        try:
            assert resumed.flows_submitted == 25
            resumed.submit_many(flows[25:])
            report = resumed.drain()
        finally:
            resumed.close()
        assert _normalized(report) == _normalized(uninterrupted)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_serve_trace_limit(self, ft4, quadratic, tmp_path, limit):
        """``limit=0`` admits no flow and leaves the trace cursor where
        it was; a negative limit is refused before the file is read."""
        trace_path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(_trace(ft4, 20, seed=2), trace_path)
        with ReplayService(
            ft4, quadratic, window=1.0, num_shards=2, mode="greedy"
        ) as service:
            assert service.serve_trace(trace_path, limit=5) == 5
            if limit == 0:
                assert service.serve_trace(trace_path, limit=limit) == 0
            else:
                with pytest.raises(ValidationError, match="limit must be"):
                    service.serve_trace(trace_path, limit=limit)
            assert service.flows_submitted == 5
            assert service.resume_trace() == 15

    @pytest.mark.parametrize("end", ["drain", "close"])
    @pytest.mark.parametrize("entry", sorted(_AFTER_THE_END))
    def test_nothing_is_admitted_after_the_end(
        self, ft4, quadratic, tmp_path, entry, end
    ):
        """Once drained or closed, every entry point refuses alike: no
        flow, fault event or worker kill is queued for a dispatch that
        never happens."""
        flows = _trace(ft4, 10, seed=2)
        trace_path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(flows, trace_path)
        with ReplayService(
            ft4, quadratic, window=1.0, num_shards=2, mode="greedy"
        ) as service:
            service.submit_many(flows[:5])
            getattr(service, end)()
            with pytest.raises(ValidationError, match="drained or closed"):
                _AFTER_THE_END[entry](service, flows, trace_path)

    def test_explicit_partition_is_honored(self, ft4, quadratic):
        partition = partition_topology(ft4, num_shards=2)
        with ReplayService(
            ft4, quadratic, window=1.0, mode="greedy", partition=partition
        ) as service:
            assert service.partition.num_shards == 2
            service.submit_many(_trace(ft4, 20, seed=2))
            report = service.drain()
        labels = [s.shard for s in report.shard_stats]
        assert len(labels) == 3  # 2 shards + cross-shard lane
