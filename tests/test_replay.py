"""Tests for the sliding-horizon replay engine and its policies.

The two load-bearing checks: (1) the engine's windowed, garbage-collected
energy accounting must agree exactly with the offline
:meth:`Schedule.energy` integral over the same committed schedules, and
(2) its per-flow deadline verdicts must agree with the independent
:func:`repro.sim.fluid.simulate_fluid` replay — including for flows whose
spans cross several window boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import dyadic_ft4_flows
from repro.errors import ValidationError
from repro.flows import Flow, FlowSet
from repro.power import PowerModel
from repro.scheduling import FlowSchedule, Schedule, Segment
from repro.sim.churn import FaultEvent, FaultSchedule
from repro.sim.fluid import simulate_fluid
from repro.traces import (
    EpochDcfsPolicy,
    GreedyDensityPolicy,
    OnlineDensityPolicy,
    PoissonProcess,
    ReplayEngine,
    ReplayPolicy,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
)


def small_spec(seed: int = 7) -> TraceSpec:
    return TraceSpec(
        arrivals=PoissonProcess(3.0),
        duration=30.0,
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=seed,
    )


class _TruncatingPolicy(ReplayPolicy):
    """Serves each flow at density over only the first half of its span —
    delivers half the volume, so every flow must be scored a miss."""

    name = "Truncating"

    def schedule_window(self, flows, ctx):
        return [
            FlowSchedule(
                flow=f,
                path=ctx.topology.shortest_path(f.src, f.dst),
                segments=(
                    Segment(
                        start=f.release,
                        end=(f.release + f.deadline) / 2.0,
                        rate=f.density,
                    ),
                ),
            )
            for f in flows
        ]


class _RefusingPolicy(ReplayPolicy):
    """Serves nothing; every flow must be counted unserved."""

    name = "Refusing"

    def schedule_window(self, flows, ctx):
        return []


class TestEngineAgainstOfflineMachinery:
    @pytest.mark.parametrize(
        "policy_factory",
        [GreedyDensityPolicy, OnlineDensityPolicy, EpochDcfsPolicy],
        ids=["greedy", "online", "epoch-dcfs"],
    )
    def test_energy_and_deadlines_match(self, ft4, quadratic, policy_factory):
        flows = list(generate_trace(ft4, small_spec()))
        engine = ReplayEngine(
            ft4, quadratic, policy_factory(), window=5.0, keep_schedules=True
        )
        report = engine.run(iter(flows))

        assert report.flows_seen == len(flows)
        assert report.flows_served == len(flows)
        assert report.unserved == 0

        schedule = Schedule(report.schedules)
        breakdown = schedule.energy(quadratic, horizon=report.horizon)
        assert report.total_energy == pytest.approx(breakdown.total, rel=1e-9)
        assert report.active_links == breakdown.active_links
        assert report.peak_link_rate == pytest.approx(
            schedule.max_link_rate(), rel=1e-9
        )

        sim = simulate_fluid(
            schedule, FlowSet(flows), ft4, quadratic, horizon=report.horizon
        )
        sim_misses = sum(1 for ok in sim.deadlines_met.values() if not ok)
        assert report.deadline_misses + report.unserved == sim_misses

    def test_idle_energy_uses_replay_horizon(self, ft4, powerdown):
        flows = list(generate_trace(ft4, small_spec()))
        engine = ReplayEngine(
            ft4, powerdown, GreedyDensityPolicy(), window=5.0,
            keep_schedules=True,
        )
        report = engine.run(iter(flows))
        breakdown = Schedule(report.schedules).energy(
            powerdown, horizon=report.horizon
        )
        assert report.idle_energy == pytest.approx(breakdown.idle, rel=1e-9)
        assert report.idle_energy > 0.0


class TestCrossWindowAccounting:
    def test_flow_spanning_many_windows(self, line3, quadratic):
        """One elephant spans 5 windows; mice come and go around it."""
        elephant = Flow(
            id="big", src="n0", dst="n2", size=10.0, release=0.5, deadline=10.5
        )
        mice = [
            Flow(
                id=f"m{k}",
                src="n0",
                dst="n1",
                size=1.0,
                release=0.5 + 2.0 * k,
                deadline=2.4 + 2.0 * k,
            )
            for k in range(5)
        ]
        trace = sorted(
            [elephant, *mice], key=lambda f: (f.release, str(f.id))
        )
        engine = ReplayEngine(
            line3, quadratic, GreedyDensityPolicy(), window=2.0,
            keep_schedules=True,
        )
        report = engine.run(iter(trace))
        assert report.windows >= 5
        assert report.flows_served == 6
        assert report.deadline_misses == 0 and report.unserved == 0
        assert report.volume_delivered == pytest.approx(15.0)
        # The windowed sweep must charge the elephant/mice stacking on the
        # shared n0-n1 link identically to the offline integral.
        breakdown = Schedule(report.schedules).energy(
            quadratic, horizon=report.horizon
        )
        assert report.total_energy == pytest.approx(breakdown.total, rel=1e-12)

    def test_truncated_service_is_a_miss(self, line3, quadratic):
        flow = Flow(id=0, src="n0", dst="n2", size=8.0, release=0.0, deadline=8.0)
        report = ReplayEngine(
            line3, quadratic, _TruncatingPolicy(), window=2.0
        ).run(iter([flow]))
        assert report.flows_served == 1
        assert report.deadline_misses == 1
        assert report.miss_rate == 1.0
        assert report.volume_delivered == pytest.approx(4.0)

    def test_unserved_flows_counted(self, line3, quadratic):
        flows = [
            Flow(id=i, src="n0", dst="n2", size=1.0, release=float(i), deadline=i + 2.0)
            for i in range(4)
        ]
        report = ReplayEngine(
            line3, quadratic, _RefusingPolicy(), window=2.0
        ).run(iter(flows))
        assert report.flows_seen == 4
        assert report.flows_served == 0
        assert report.unserved == 4
        assert report.miss_rate == 1.0
        assert report.total_energy == 0.0

    def test_capacity_violations_detected(self, line3):
        capped = PowerModel.quadratic(capacity=1.0)
        flows = [
            Flow(id=i, src="n0", dst="n2", size=4.0, release=0.0, deadline=2.0)
            for i in range(2)
        ]
        report = ReplayEngine(
            line3, capped, GreedyDensityPolicy(), window=2.0
        ).run(iter(flows))
        assert report.capacity_violations > 0
        assert report.peak_link_rate == pytest.approx(4.0)


class TestEngineValidation:
    def test_unsorted_trace_rejected(self, line3, quadratic):
        flows = [
            Flow(id=0, src="n0", dst="n2", size=1.0, release=5.0, deadline=7.0),
            Flow(id=1, src="n0", dst="n2", size=1.0, release=1.0, deadline=3.0),
        ]
        engine = ReplayEngine(line3, quadratic, GreedyDensityPolicy(), window=2.0)
        with pytest.raises(ValidationError):
            engine.run(iter(flows))

    def test_empty_trace_rejected(self, line3, quadratic):
        engine = ReplayEngine(line3, quadratic, GreedyDensityPolicy(), window=2.0)
        with pytest.raises(ValidationError):
            engine.run(iter(()))

    def test_bad_window_rejected(self, line3, quadratic):
        with pytest.raises(ValidationError):
            ReplayEngine(line3, quadratic, GreedyDensityPolicy(), window=0.0)

    def test_foreign_schedule_rejected(self, line3, quadratic):
        class Foreign(ReplayPolicy):
            name = "Foreign"

            def schedule_window(self, flows, ctx):
                stranger = Flow(
                    id="ghost", src="n0", dst="n1", size=1.0,
                    release=ctx.start, deadline=ctx.end,
                )
                return [
                    FlowSchedule(
                        flow=stranger,
                        path=("n0", "n1"),
                        segments=(
                            Segment(start=ctx.start, end=ctx.end, rate=1.0),
                        ),
                    )
                ]

        flow = Flow(id=0, src="n0", dst="n2", size=1.0, release=0.0, deadline=2.0)
        engine = ReplayEngine(line3, quadratic, Foreign(), window=2.0)
        with pytest.raises(ValidationError):
            engine.run(iter([flow]))


    @staticmethod
    def _reuse_case(line3, quadratic, second_id):
        """Flow ``a`` on n0->n2 over [0, 10] and a second flow over
        [2.5, 4]; the link under ``a`` dies at t=5."""
        flows = [
            Flow(id="a", src="n0", dst="n2", size=10.0,
                 release=0.0, deadline=10.0),
            Flow(id=second_id, src="n1", dst="n2", size=1.0,
                 release=2.5, deadline=4.0),
        ]
        faults = FaultSchedule(
            [FaultEvent(time=5.0, kind="link_down", edge=("n0", "n1"))]
        )
        engine = ReplayEngine(
            line3, quadratic, GreedyDensityPolicy(), window=1.0,
            faults=faults,
        )
        return engine.run(iter(flows))

    def test_live_flow_id_reuse_rejected(self, line3, quadratic):
        """The churn registry is keyed by flow id: a flow reusing the id
        of one still transmitting would overwrite its entry and exempt it
        from fault repair, so bytes would cross the dead link unseen."""
        with pytest.raises(ValidationError, match="'a'"):
            self._reuse_case(line3, quadratic, "a")
        # The same trace with distinct ids: the failure dooms flow a.
        report = self._reuse_case(line3, quadratic, "b")
        assert report.deadline_misses == 1
        assert report.misses_attributed_to_failure == 1
        assert report.volume_delivered == pytest.approx(6.0)

    def test_id_reuse_after_completion_allowed(self, line3, quadratic):
        flows = [
            Flow(id="a", src="n0", dst="n2", size=2.0,
                 release=0.0, deadline=2.0),
            Flow(id="a", src="n1", dst="n2", size=1.0,
                 release=2.0, deadline=4.0),
        ]
        report = ReplayEngine(
            line3, quadratic, GreedyDensityPolicy(), window=1.0
        ).run(iter(flows))
        assert report.flows_served == 2
        assert report.deadline_misses == 0


class _CapturingEngine(ReplayEngine):
    """Keeps the accountant of its last run."""

    def _accountant(self):
        self.acct = super()._accountant()
        return self.acct


class TestStreamingBehavior:
    def test_accountant_holds_no_per_trace_state(self, ft4, quadratic):
        """Accountant memory follows the live set, never the trace: once
        a replay touching most host pairs has settled, no container it
        holds is longer than the fabric's edge count."""
        spec = TraceSpec(
            arrivals=PoissonProcess(20.0),
            duration=60.0,
            size_sampler=lognormal_sizes(1.0, 0.6),
            slack_model=proportional_slack(3.0, 1.0),
            seed=5,
        )
        engine = _CapturingEngine(
            ft4, quadratic, GreedyDensityPolicy(), window=1.0
        )
        report = engine.run(generate_trace(ft4, spec))
        assert report.flows_seen > 1000
        acct = engine.acct
        assert not acct.has_live  # every piece settled: per-edge state only
        for name, value in vars(acct).items():
            if isinstance(value, (list, tuple, dict, set, np.ndarray)):
                assert len(value) <= ft4.num_edges, name

    def test_memory_stays_bounded(self, ft4, quadratic):
        """Resident segments track the active set, not the trace length."""
        spec = TraceSpec(
            arrivals=PoissonProcess(8.0),
            duration=250.0,
            size_sampler=lognormal_sizes(0.5, 0.5),
            slack_model=proportional_slack(2.0, 1.0),
            seed=0,
        )
        engine = ReplayEngine(ft4, quadratic, GreedyDensityPolicy(), window=10.0)
        report = engine.run(generate_trace(ft4, spec))
        assert report.flows_seen > 1500
        # Each served flow commits ~|path| segments; resident peak must be a
        # small multiple of one window's worth, far below the whole trace.
        assert report.max_resident_segments < report.flows_served
        assert report.max_resident_segments < 12 * report.max_window_arrivals
        assert report.schedules is None

    def test_quiet_gaps_are_skipped_correctly(self, line3, quadratic):
        """Windows with no arrivals still retire carried segments."""
        flows = [
            Flow(id=0, src="n0", dst="n2", size=2.0, release=0.0, deadline=30.0),
            Flow(id=1, src="n0", dst="n2", size=1.0, release=28.0, deadline=31.0),
        ]
        report = ReplayEngine(
            line3, quadratic, GreedyDensityPolicy(), window=2.0,
            keep_schedules=True,
        ).run(iter(flows))
        assert report.windows >= 15
        assert report.deadline_misses == 0 and report.unserved == 0
        breakdown = Schedule(report.schedules).energy(
            quadratic, horizon=report.horizon
        )
        assert report.total_energy == pytest.approx(breakdown.total, rel=1e-12)

    def test_huge_arrival_gap_is_skipped_in_one_step(self, line3, quadratic):
        """A million empty windows between arrivals must not be iterated."""
        flows = [
            Flow(id=0, src="n0", dst="n2", size=1.0, release=0.0, deadline=2.0),
            Flow(id=1, src="n0", dst="n2", size=1.0, release=1e6, deadline=1e6 + 2.0),
        ]
        import time

        start = time.perf_counter()
        report = ReplayEngine(
            line3, quadratic, GreedyDensityPolicy(), window=1.0,
            keep_schedules=True,
        ).run(iter(flows))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"gap traversal took {elapsed:.1f}s"
        assert report.flows_served == 2
        assert report.deadline_misses == 0 and report.unserved == 0
        breakdown = Schedule(report.schedules).energy(
            quadratic, horizon=report.horizon
        )
        assert report.total_energy == pytest.approx(breakdown.total, rel=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 2.0**15], ids=["near", "far"])
    def test_epoch_dcfs_far_from_origin(self, ft4, quadratic, shift):
        """Most-Critical-First windows hours into a trace (past 2^14 s,
        where ``b + 1e-12 == b``) serve every flow at the rates of the
        same windows at t = 0 — exactly, since the instance is dyadic."""
        flows = dyadic_ft4_flows(shift) + dyadic_ft4_flows(shift + 1.0, 3)
        report = ReplayEngine(
            ft4, quadratic, EpochDcfsPolicy(), window=0.5, keep_schedules=True
        ).run(iter(flows))
        assert report.flows_served == 6 and report.policy_fallbacks == 0
        assert report.deadline_misses == 0 and report.unserved == 0
        rates = {
            fs.flow.id: {seg.rate for seg in fs.segments}
            for fs in report.schedules
        }
        assert rates == {
            0: {1.0}, 1: {0.5}, 2: {0.5}, 3: {1.0}, 4: {0.5}, 5: {0.5}
        }

    def test_epoch_dcfs_reports_fallbacks(self, ft4, quadratic):
        report = ReplayEngine(
            ft4, quadratic, EpochDcfsPolicy(), window=5.0
        ).run(generate_trace(ft4, small_spec()))
        assert report.policy_fallbacks == 0

    def test_goodput_and_summary(self, ft4, quadratic):
        report = ReplayEngine(
            ft4, quadratic, GreedyDensityPolicy(), window=5.0
        ).run(generate_trace(ft4, small_spec()))
        assert report.goodput > 0.0
        text = report.summary()
        assert "Greedy+Density" in text and "miss rate" in text


class TestTraceAblation:
    def test_tiny_ablation_runs(self):
        from repro.experiments.ablations import trace_ablation

        table = trace_ablation(rate=2.0, duration=10.0, window=5.0, seed=0)
        assert len(table.rows) == 5
        rendered = table.render()
        assert "Online+Density" in rendered
        assert "Epoch-DCFS" in rendered
        assert "Greedy+Density" in rendered
        assert "PowerOfTwo" in rendered
        assert "LeastLoaded" in rendered


class TestChoicePolicies:
    """The O(1) switch-lineage baselines: power-of-two and least-loaded."""

    def _trace(self, topology, seed=3):
        return list(generate_trace(topology, small_spec(seed=seed)))

    def test_least_loaded_beats_greedy_energy(self, ft4, quadratic):
        from repro.traces import LeastLoadedPolicy

        trace = self._trace(ft4)
        greedy = ReplayEngine(
            ft4, quadratic, GreedyDensityPolicy(), window=5.0
        ).run(trace)
        ll = ReplayEngine(
            ft4, quadratic, LeastLoadedPolicy(), window=5.0
        ).run(trace)
        assert ll.flows_served == greedy.flows_served
        assert ll.miss_rate == 0.0
        assert ll.dynamic_energy < greedy.dynamic_energy

    def test_power_of_two_meets_deadlines_and_spreads(self, ft4, quadratic):
        from repro.traces import PowerOfTwoPolicy

        trace = self._trace(ft4)
        greedy = ReplayEngine(
            ft4, quadratic, GreedyDensityPolicy(), window=5.0
        ).run(trace)
        p2 = ReplayEngine(
            ft4, quadratic, PowerOfTwoPolicy(seed=1), window=5.0
        ).run(trace)
        assert p2.miss_rate == 0.0
        assert p2.flows_served == len(trace)
        # Two random choices already break the oblivious stacking.
        assert p2.peak_link_rate <= greedy.peak_link_rate

    def test_power_of_two_is_seed_deterministic(self, ft4, quadratic):
        from repro.traces import PowerOfTwoPolicy

        trace = self._trace(ft4)
        runs = [
            ReplayEngine(
                ft4, quadratic, PowerOfTwoPolicy(seed=9), window=5.0
            ).run(trace)
            for _ in range(2)
        ]
        assert runs[0].dynamic_energy == runs[1].dynamic_energy
        # Engine resets the policy per run, so reuse is also stable.
        policy = PowerOfTwoPolicy(seed=9)
        engine = ReplayEngine(ft4, quadratic, policy, window=5.0)
        assert engine.run(trace).dynamic_energy == runs[0].dynamic_energy
        assert engine.run(trace).dynamic_energy == runs[0].dynamic_energy

    def test_schedules_ride_real_candidate_paths(self, ft4, quadratic):
        from repro.topology.base import path_edges
        from repro.traces import LeastLoadedPolicy

        trace = self._trace(ft4)
        engine = ReplayEngine(
            ft4, quadratic, LeastLoadedPolicy(), window=5.0,
            keep_schedules=True,
        )
        report = engine.run(trace)
        for fs in report.schedules:
            assert fs.path[0] == fs.flow.src
            assert fs.path[-1] == fs.flow.dst
            for edge in path_edges(fs.path):
                ft4.edge_id(edge)  # raises if the edge is not real
