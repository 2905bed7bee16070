"""Tests for the streaming relaxation+rounding policy (Algorithm 2 in a
window) and the replay plumbing it rides on.

The load-bearing checks mirror the other policies' suite: windowed energy
accounting pinned to :meth:`Schedule.energy` and deadline verdicts to
:func:`repro.sim.fluid.simulate_fluid` — plus the cross-window property:
the relaxation pipeline the policy caches across windows must produce
the same committed schedule (hence identical total energy) as a fresh
pipeline per window under the same seed, with or without link outages.
"""

from __future__ import annotations

import pytest

from tests.oracles.policies import ColdRelaxationPolicy
from repro.errors import ValidationError
from repro.flows import Flow, FlowSet
from repro.scheduling import Schedule
from repro.sim.churn import FaultSchedule
from repro.sim.fluid import simulate_fluid
from repro.traces import (
    PoissonProcess,
    PowerOfTwoPolicy,
    RelaxationRoundingPolicy,
    ReplayEngine,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
)


def small_spec(seed: int = 7, rate: float = 3.0) -> TraceSpec:
    return TraceSpec(
        arrivals=PoissonProcess(rate),
        duration=30.0,
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=seed,
    )


class TestAgainstOfflineMachinery:
    @pytest.mark.parametrize("rounding", ["random", "deterministic"])
    def test_energy_and_deadlines_match(self, ft4, quadratic, rounding):
        flows = list(generate_trace(ft4, small_spec()))
        policy = RelaxationRoundingPolicy(seed=0, rounding=rounding)
        engine = ReplayEngine(
            ft4, quadratic, policy, window=5.0, keep_schedules=True
        )
        report = engine.run(iter(flows))

        assert report.flows_served == len(flows)
        assert report.deadline_misses == 0  # density over the span
        schedule = Schedule(report.schedules)
        breakdown = schedule.energy(quadratic, horizon=report.horizon)
        assert report.total_energy == pytest.approx(breakdown.total, rel=1e-9)
        assert report.active_links == breakdown.active_links

        sim = simulate_fluid(
            schedule, FlowSet(flows), ft4, quadratic, horizon=report.horizon
        )
        assert all(sim.deadlines_met.values())

    def test_density_profile_per_flow(self, ft4, quadratic):
        flows = list(generate_trace(ft4, small_spec(seed=3)))
        engine = ReplayEngine(
            ft4, quadratic, RelaxationRoundingPolicy(seed=0), window=5.0,
            keep_schedules=True,
        )
        report = engine.run(iter(flows))
        for fs in report.schedules:
            assert len(fs.segments) == 1
            segment = fs.segments[0]
            assert segment.start == fs.flow.release
            assert segment.end == fs.flow.deadline
            assert segment.rate == pytest.approx(fs.flow.density)

    def test_run_is_reproducible(self, ft4, quadratic):
        flows = list(generate_trace(ft4, small_spec()))
        policy = RelaxationRoundingPolicy(seed=11)
        engine = ReplayEngine(
            ft4, quadratic, policy, window=5.0, keep_schedules=True
        )
        first = engine.run(iter(flows))
        second = engine.run(iter(flows))  # reset() must rewind the rng
        assert [fs.path for fs in first.schedules] == [
            fs.path for fs in second.schedules
        ]
        assert first.total_energy == second.total_energy


class TestCrossWindowSession:
    def _elephant_and_mice(self):
        """One long flow spanning 5 windows (window = 2), mice around it."""
        elephant = Flow(
            id="big", src="h_p00_e0_0", dst="h_p01_e1_1", size=10.0,
            release=0.5, deadline=10.5,
        )
        mice = [
            Flow(
                id=f"m{k}",
                src="h_p00_e0_1",
                dst="h_p01_e0_0",
                size=1.0,
                release=0.5 + 2.0 * k,
                deadline=2.4 + 2.0 * k,
            )
            for k in range(5)
        ]
        return sorted([elephant, *mice], key=lambda f: (f.release, str(f.id)))

    def _overlapping_outages(self, ft4):
        """A Poisson trace under two overlapping pod-2 link outages: the
        down set moves {a} -> {a, b} -> {b} -> {} across its 5-unit
        windows, so the survivor pipeline is rebuilt, cached and
        dropped."""
        a = ("sw_a_p02_0", "sw_c_00_01")
        b = ("sw_a_p02_1", "sw_e_p02_1")
        faults = FaultSchedule.scripted(
            [(4.0, "down", a), (9.0, "down", b), (17.0, "up", a),
             (22.0, "up", b)]
        )
        return list(generate_trace(ft4, small_spec(seed=7))), faults

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["no-faults", "overlapping-outages"])
    def test_warm_equals_forced_cold(self, ft4, quadratic, faulted):
        """The cached pipeline vs a fresh pipeline per window must commit
        identical schedules (same seed), hence identical total energy —
        cached state never changes a route.  Fault-free, a flow spans
        >= 3 windows; under link outages the cached survivor pipeline
        must match one rebuilt every window."""
        if faulted:
            trace, faults = self._overlapping_outages(ft4)
            window, seeds = 5.0, range(4)
        else:
            trace, faults = self._elephant_and_mice(), None
            window, seeds = 2.0, (5,)
        for seed in seeds:
            reports = {}
            for warm in (True, False):
                policy = (
                    RelaxationRoundingPolicy if warm else ColdRelaxationPolicy
                )(seed=seed)
                engine = ReplayEngine(
                    ft4, quadratic, policy, window=window,
                    keep_schedules=True, faults=faults,
                )
                reports[warm] = engine.run(iter(trace))
            warm_report, cold_report = reports[True], reports[False]
            assert warm_report.windows >= 5
            assert [fs.path for fs in warm_report.schedules] == [
                fs.path for fs in cold_report.schedules
            ]
            assert warm_report.total_energy == cold_report.total_energy
            if faulted:
                assert warm_report.flows_rerouted > 0
                continue
            # And the windowed accounting still matches the offline
            # integral.
            breakdown = Schedule(warm_report.schedules).energy(
                quadratic, horizon=warm_report.horizon
            )
            assert warm_report.total_energy == pytest.approx(
                breakdown.total, rel=1e-12
            )

    def test_pipeline_persists_across_windows_not_runs(self, ft4, quadratic):
        seen: list[object] = []

        class Probe(RelaxationRoundingPolicy):
            def schedule_window(self, flows, ctx):
                out = super().schedule_window(flows, ctx)
                seen.append(self._base_pipeline)
                return out

        flows = list(generate_trace(ft4, small_spec(seed=1)))
        engine = ReplayEngine(ft4, quadratic, Probe(seed=0), window=5.0)
        engine.run(iter(flows))
        first_run = list(seen)
        assert len(first_run) >= 2
        assert all(p is first_run[0] for p in first_run)  # one per run
        seen.clear()
        engine.run(iter(flows))
        assert seen and all(p is seen[0] for p in seen)
        assert seen[0] is not first_run[0]  # reset() drops the cache

    def test_background_feeds_relaxation(self, ft4, quadratic):
        """With the background the policy must still meet every deadline
        and account identically; the background only steers routing."""
        flows = list(generate_trace(ft4, small_spec(seed=2)))
        policy = RelaxationRoundingPolicy(seed=0)
        report = ReplayEngine(
            ft4, quadratic, policy, window=5.0, keep_schedules=True
        ).run(iter(flows))
        assert report.deadline_misses == 0
        breakdown = Schedule(report.schedules).energy(
            quadratic, horizon=report.horizon
        )
        assert report.total_energy == pytest.approx(
            breakdown.total, rel=1e-9
        )


class TestDriftSurfacing:
    def test_report_carries_policy_drift(self, ft4, quadratic):
        flows = list(generate_trace(ft4, small_spec()))
        policy = RelaxationRoundingPolicy(seed=0)
        report = ReplayEngine(ft4, quadratic, policy, window=5.0).run(
            iter(flows)
        )
        assert report.max_weight_drift == policy.max_weight_drift
        assert 0.0 <= report.max_weight_drift < 1e-9

    def test_summary_mentions_drift_when_present(self):
        from repro.traces.replay import ReplayReport

        def report(drift: float) -> ReplayReport:
            return ReplayReport(
                policy="P", window=1.0, windows=1, horizon=(0.0, 1.0),
                flows_seen=1, flows_served=1, deadline_misses=0, unserved=0,
                volume_offered=1.0, volume_delivered=1.0, idle_energy=0.0,
                dynamic_energy=1.0, active_links=1, peak_link_rate=1.0,
                capacity_violations=0, policy_fallbacks=0,
                max_resident_segments=1, max_window_arrivals=1,
                max_weight_drift=drift,
            )

        assert "max w_bar drift 0.002" in report(2e-3).summary()
        assert "drift" not in report(0.0).summary()


class TestValidation:
    def test_bad_rounding_mode_rejected(self):
        with pytest.raises(ValidationError):
            RelaxationRoundingPolicy(rounding="annealed")

    @pytest.mark.parametrize("seed", [-1, 1.5, "x"])
    @pytest.mark.parametrize(
        "policy", [RelaxationRoundingPolicy, PowerOfTwoPolicy]
    )
    def test_bad_seed_rejected(self, policy, seed):
        """The seeded policies share the sharded service's seed check,
        so a bad seed fails at construction with the service's message,
        not with a numpy error at the first draw."""
        with pytest.raises(
            ValidationError, match="seed must be an integer >= 0"
        ):
            policy(seed=seed)


class TestAblation:
    def test_tiny_relax_replay_ablation(self):
        from repro.experiments.ablations import relax_replay_ablation

        table = relax_replay_ablation(rate=2.0, duration=10.0, window=5.0)
        rendered = table.render()
        assert "Relax+Round" in rendered
        assert "Online+Density" in rendered
        assert "Greedy+Density" in rendered
        assert len(table.rows) == 3
        for row in table.rows:
            assert float(row[3]) == 0.0  # density policies never miss
