"""Tests for Most-Critical-First (Algorithm 1) — the optimal DCFS solver."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import random_flows_on
from tests.oracles.convex import solve_p1_reference
from repro.core import solve_dcfs
from repro.errors import ValidationError
from repro.flows import Flow, FlowSet
from repro.power import PowerModel
from repro.scheduling import YdsJob, yds_schedule
from repro.topology import line, star


class TestPaperExample1:
    """Example 1 (Fig. 1): line A-B-C, f = x^2, two flows."""

    PATHS = {1: ("n0", "n1", "n2"), 2: ("n0", "n1")}

    def test_exact_rates(self, line3, example1_flows, quadratic):
        result = solve_dcfs(example1_flows, line3, self.PATHS, quadratic)
        s2 = (8 + 6 * math.sqrt(2)) / 3
        assert result.rates[2] == pytest.approx(s2)
        assert result.rates[1] == pytest.approx(s2 / math.sqrt(2))
        # The paper's invariant: sqrt(2) * s1 == s2.
        assert math.sqrt(2) * result.rates[1] == pytest.approx(result.rates[2])

    def test_energy_matches_closed_form(self, line3, example1_flows, quadratic):
        result = solve_dcfs(example1_flows, line3, self.PATHS, quadratic)
        # Phi = 2 * 6 * s1 + 8 * s2 (paper's objective for alpha = 2).
        expected = 2 * 6 * result.rates[1] + 8 * result.rates[2]
        assert result.dynamic_energy(quadratic) == pytest.approx(expected)

    def test_integrated_energy_matches_closed_form(
        self, line3, example1_flows, quadratic
    ):
        result = solve_dcfs(example1_flows, line3, self.PATHS, quadratic)
        integrated = result.schedule.energy(quadratic, horizon=(1, 4)).dynamic
        assert integrated == pytest.approx(result.dynamic_energy(quadratic))

    def test_matches_convex_reference(self, line3, example1_flows, quadratic):
        result = solve_dcfs(example1_flows, line3, self.PATHS, quadratic)
        reference = solve_p1_reference(
            example1_flows, line3, self.PATHS, quadratic
        )
        assert result.dynamic_energy(quadratic) == pytest.approx(
            reference.objective, rel=1e-6
        )

    def test_schedule_feasible(self, line3, example1_flows, quadratic):
        result = solve_dcfs(example1_flows, line3, self.PATHS, quadratic)
        report = result.schedule.verify(example1_flows, line3, quadratic)
        assert report.ok


class TestSingleLink:
    """On one link, DCFS is exactly the YDS problem."""

    def flows(self):
        return FlowSet(
            [
                Flow(id="x", src="n0", dst="n1", size=4, release=0, deadline=2),
                Flow(id="y", src="n0", dst="n1", size=3, release=1, deadline=4),
                Flow(id="z", src="n0", dst="n1", size=1, release=3, deadline=4),
            ]
        )

    def test_matches_yds(self, quadratic):
        topo = line(2)
        flows = self.flows()
        paths = {f.id: ("n0", "n1") for f in flows}
        dcfs = solve_dcfs(flows, topo, paths, quadratic)
        yds = yds_schedule(
            [YdsJob(f.id, f.release, f.deadline, f.size) for f in flows]
        )
        for fid in ("x", "y", "z"):
            assert dcfs.rates[fid] == pytest.approx(yds.speeds[fid])
        assert dcfs.dynamic_energy(quadratic) == pytest.approx(
            yds.energy(alpha=2.0)
        )

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_matches_convex_reference(self, alpha):
        power = PowerModel(alpha=alpha)
        topo = line(2)
        flows = self.flows()
        paths = {f.id: ("n0", "n1") for f in flows}
        dcfs = solve_dcfs(flows, topo, paths, power)
        ref = solve_p1_reference(flows, topo, paths, power)
        assert dcfs.dynamic_energy(power) == pytest.approx(
            ref.objective, rel=1e-5
        )


class TestDisjointPaths:
    def test_independent_flows_run_at_density(self, quadratic):
        topo = star(4)
        flows = FlowSet(
            [
                Flow(id=1, src="h0", dst="h1", size=6, release=0, deadline=3),
                Flow(id=2, src="h2", dst="h3", size=4, release=0, deadline=2),
            ]
        )
        paths = {1: ("h0", "hub", "h1"), 2: ("h2", "hub", "h3")}
        result = solve_dcfs(flows, topo, paths, quadratic)
        assert result.rates[1] == pytest.approx(2.0)
        assert result.rates[2] == pytest.approx(2.0)


class TestVirtualWeights:
    def test_longer_path_runs_slower(self, quadratic):
        """Two flows sharing link (n0,n1); the 2-hop one should get the
        slower rate by the |P|^(1/alpha) weighting."""
        topo = line(3)
        flows = FlowSet(
            [
                Flow(id="long", src="n0", dst="n2", size=5, release=0, deadline=2),
                Flow(id="short", src="n0", dst="n1", size=5, release=0, deadline=2),
            ]
        )
        paths = {"long": ("n0", "n1", "n2"), "short": ("n0", "n1")}
        result = solve_dcfs(flows, topo, paths, quadratic)
        assert result.rates["long"] < result.rates["short"]
        # Lagrange condition: |P|^(1/alpha) * s equalized.
        assert math.sqrt(2) * result.rates["long"] == pytest.approx(
            result.rates["short"]
        )


class TestSandwich:
    """On arbitrary instances: P1 optimum <= MCF energy (P1 relaxes the
    schedule to rate assignments, so it lower-bounds any realizable
    virtual-circuit schedule)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_p1_lower_bounds_mcf(self, ft4, quadratic, seed):
        flows = random_flows_on(ft4, 6, seed=seed)
        paths = {f.id: ft4.shortest_path(f.src, f.dst) for f in flows}
        mcf = solve_dcfs(flows, ft4, paths, quadratic)
        ref = solve_p1_reference(flows, ft4, paths, quadratic)
        assert mcf.dynamic_energy(quadratic) >= ref.objective - 1e-6 * max(
            1.0, ref.objective
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_schedules_always_feasible(self, ft4, quadratic, seed):
        flows = random_flows_on(ft4, 8, seed=seed)
        paths = {f.id: ft4.shortest_path(f.src, f.dst) for f in flows}
        result = solve_dcfs(flows, ft4, paths, quadratic)
        report = result.schedule.verify(flows, ft4, quadratic)
        assert report.deadline_feasible, report.summary()

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_integral_dominates_closed_form(self, ft4, alpha, seed):
        """Cross-round segments may stack on shared non-critical links
        (see DcfsResult.dynamic_energy); superadditivity then makes the
        integrated energy the larger of the two, never the smaller."""
        power = PowerModel(alpha=alpha)
        flows = random_flows_on(ft4, 7, seed=seed)
        paths = {f.id: ft4.shortest_path(f.src, f.dst) for f in flows}
        result = solve_dcfs(flows, ft4, paths, power)
        t0, t1 = flows.horizon
        integrated = result.schedule.energy(power, horizon=(t0, t1)).dynamic
        closed = result.dynamic_energy(power)
        assert integrated >= closed * (1.0 - 1e-9)
        # The overlap correction grows with alpha (superadditivity) but
        # stays far below the stacking worst case on these workloads.
        assert integrated <= closed * 2.0

    def test_closed_form_equals_integral_without_sharing(self, quadratic):
        """On disjoint paths the two energy accountings agree exactly."""
        topo = star(6)
        flows = FlowSet(
            [
                Flow(id=1, src="h0", dst="h1", size=5, release=0, deadline=4),
                Flow(id=2, src="h2", dst="h3", size=3, release=1, deadline=3),
                Flow(id=3, src="h4", dst="h5", size=2, release=0, deadline=5),
            ]
        )
        paths = {
            1: ("h0", "hub", "h1"),
            2: ("h2", "hub", "h3"),
            3: ("h4", "hub", "h5"),
        }
        result = solve_dcfs(flows, topo, paths, quadratic)
        t0, t1 = flows.horizon
        integrated = result.schedule.energy(quadratic, horizon=(t0, t1)).dynamic
        assert integrated == pytest.approx(
            result.dynamic_energy(quadratic), rel=1e-9
        )


class TestValidation:
    def test_missing_path_rejected(self, line3, example1_flows, quadratic):
        with pytest.raises(ValidationError):
            solve_dcfs(example1_flows, line3, {1: ("n0", "n1", "n2")}, quadratic)

    def test_invalid_path_rejected(self, line3, example1_flows, quadratic):
        paths = {1: ("n0", "n2"), 2: ("n0", "n1")}
        from repro.errors import TopologyError

        with pytest.raises(TopologyError):
            solve_dcfs(example1_flows, line3, paths, quadratic)

    def test_rounds_bounded_by_flows(self, ft4, quadratic):
        flows = random_flows_on(ft4, 10, seed=3)
        paths = {f.id: ft4.shortest_path(f.src, f.dst) for f in flows}
        result = solve_dcfs(flows, ft4, paths, quadratic)
        assert 1 <= result.rounds <= len(flows)


#: Ids ``1`` and ``"1"`` share a ``str``; flow 2 splits their span.
_SHARED_STR_SOLVE = """
from repro.core import solve_dcfs
from repro.flows import Flow, FlowSet
from repro.power import PowerModel
from repro.topology import line

topology = line(3)
flows = FlowSet([
    Flow(id=1, src="n0", dst="n2", size=1.0, release=0.0, deadline=2.0),
    Flow(id="1", src="n0", dst="n2", size=3.0, release=0.0, deadline=2.0),
    Flow(id=2, src="n0", dst="n2", size=0.7, release=0.5, deadline=1.5),
])
paths = {f.id: ("n0", "n1", "n2") for f in flows}
result = solve_dcfs(flows, topology, paths, PowerModel.quadratic())
print(repr([(fs.flow.id, fs.segments) for fs in result.schedule]))
"""


class TestDeterminism:
    def test_schedule_ignores_string_hashing(self):
        """Queues order flows by ``str(id)``, ties in FlowSet order.
        Ordering ids ``1`` and ``"1"`` by ``str`` alone left the tie to
        set iteration, which follows ``PYTHONHASHSEED``: under seed 5
        flow 1 moved from [0, 0.43] to [1.57, 2]."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src), env.get("PYTHONPATH")))
        )
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _SHARED_STR_SOLVE],
                env=dict(env, PYTHONHASHSEED=seed),
                stdout=subprocess.PIPE,
                text=True,
            )
            for seed in ("0", "3", "5", "7", "11")
        ]
        schedules = {run.communicate(timeout=120)[0] for run in runs}
        assert [run.returncode for run in runs] == [0] * len(runs)
        assert len(schedules) == 1
