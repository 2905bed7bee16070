"""Tests for the interval-resolved background layer (PR 7).

Three tiers of pins:

* :class:`BackgroundProfile` itself — construction contracts, integral /
  mean_over / restrict algebra against brute-force piece sums, and the
  batched :meth:`~repro.routing.background.BackgroundProfile.means`
  pinned **bit-identical** to the scalar query it replaced;
* the :class:`WindowAccountant` views — the vectorized
  :meth:`~repro.traces.replay.WindowAccountant.background` bincount pass
  pinned **bit-identical** to a per-piece reference loop, and
  :meth:`~repro.traces.replay.WindowAccountant.background_profile`
  integrating back to that vector;
* whole replays — every background-consuming policy, replayed under link
  churn (greedy fault repair routes on the accountant's window-mean
  :meth:`~repro.traces.replay.WindowAccountant.background`) through an
  engine whose accountant swaps in the reference loop, must produce the
  bit-identical report (the
  :meth:`~repro.traces.replay.ReplayEngine._accountant` seam).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.policies import ColdRelaxationPolicy
from repro.errors import ValidationError
from repro.flows import Flow
from repro.power import PowerModel
from repro.routing.background import BackgroundProfile
from repro.scheduling import FlowSchedule, Segment
from repro.sim.churn import FaultSchedule
from repro.topology import line
from repro.traces import (
    GreedyDensityPolicy,
    LeastLoadedPolicy,
    OnlineDensityPolicy,
    PoissonProcess,
    PowerOfTwoPolicy,
    RelaxationRoundingPolicy,
    ReplayEngine,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
)
from repro.traces.replay import WindowAccountant

# ----------------------------------------------------------------------
# BackgroundProfile unit contracts.
# ----------------------------------------------------------------------


class TestProfileValidation:
    def test_minimal_profile(self):
        p = BackgroundProfile(2, 0.0, 1.0, [0.0, 1.0], [[1.0, 0.0]])
        assert p.num_pieces == 1
        assert np.array_equal(p.mean_over(0.0, 1.0), [1.0, 0.0])

    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError):
            BackgroundProfile(1, 1.0, 1.0, [1.0, 2.0], [[0.0]])

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValidationError):
            BackgroundProfile(1, 0.0, 1.0, [0.0, 0.5, 0.5, 1.0], np.zeros((3, 1)))

    def test_support_must_cover_window(self):
        with pytest.raises(ValidationError):
            BackgroundProfile(1, 0.0, 2.0, [0.0, 1.0], [[0.0]])
        with pytest.raises(ValidationError):
            BackgroundProfile(1, 0.0, 1.0, [0.5, 1.0], [[0.0]])

    def test_loads_shape_and_sign(self):
        with pytest.raises(ValidationError):
            BackgroundProfile(2, 0.0, 1.0, [0.0, 1.0], [[1.0]])
        with pytest.raises(ValidationError):
            BackgroundProfile(1, 0.0, 1.0, [0.0, 1.0], [[-0.1]])

    def test_nan_loads_rejected(self):
        """NaN passed the sign check (``NaN < 0`` is false), and every
        later mean over the profile read NaN."""
        with pytest.raises(ValidationError, match="not NaN"):
            BackgroundProfile(
                2, 0.0, 2.0, [0.0, 1.0, 2.0], [[0.5, 0.5], [np.nan, 0.5]]
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_breakpoints_rejected(self, bad):
        """``[0, nan, 2]`` passed the strictly-increasing check, because
        every comparison with NaN is false."""
        times = [0.0, bad, 2.0] if np.isnan(bad) else [0.0, 1.0, bad]
        with pytest.raises(ValidationError, match="finite"):
            BackgroundProfile(1, 0.0, 1.0, times, [[0.0], [0.0]])

    def test_degenerate_queries_rejected(self):
        p = BackgroundProfile(1, 0.0, 1.0, [0.0, 1.0], [[2.0]])
        with pytest.raises(ValidationError):
            p.integral(0.5, 0.5)


@st.composite
def step_profiles(draw):
    """A random piecewise-constant profile plus its raw (times, loads)."""
    k = draw(st.integers(1, 6))
    edges = draw(st.integers(1, 3))
    gaps = draw(
        st.lists(st.floats(0.25, 4.0), min_size=k, max_size=k)
    )
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    loads = np.array(
        draw(
            st.lists(
                st.lists(st.floats(0.0, 8.0), min_size=edges, max_size=edges),
                min_size=k,
                max_size=k,
            )
        )
    )
    end = draw(st.floats(0.25, float(times[-1])))
    return BackgroundProfile(edges, 0.0, end, times, loads), times, loads


def _brute_integral(times, loads, t0, t1):
    """Piece-by-piece overlap sum — the oracle for integral queries."""
    total = np.zeros(loads.shape[1])
    for k in range(len(times) - 1):
        overlap = min(times[k + 1], t1) - max(times[k], t0)
        if overlap > 0:
            total += loads[k] * overlap
    return total


class TestProfileAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(case=step_profiles(), data=st.data())
    def test_integral_matches_brute_force(self, case, data):
        profile, times, loads = case
        horizon = float(times[-1])
        t0 = data.draw(st.floats(-1.0, horizon + 1.0))
        t1 = data.draw(st.floats(t0 + 1e-3, horizon + 2.0))
        expected = _brute_integral(times, loads, t0, t1)
        np.testing.assert_allclose(
            profile.integral(t0, t1), expected, rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            profile.mean_over(t0, t1), expected / (t1 - t0),
            rtol=1e-9, atol=1e-9,
        )

    @settings(max_examples=40, deadline=None)
    @given(case=step_profiles(), data=st.data())
    def test_integral_is_additive(self, case, data):
        profile, times, _ = case
        horizon = float(times[-1])
        a = data.draw(st.floats(0.0, horizon - 0.2))
        b = data.draw(st.floats(a + 0.05, horizon - 0.1))
        c = data.draw(st.floats(b + 0.05, horizon))
        np.testing.assert_allclose(
            profile.integral(a, b) + profile.integral(b, c),
            profile.integral(a, c),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_zero_outside_support(self):
        p = BackgroundProfile(1, 0.0, 2.0, [0.0, 2.0], [[5.0]])
        assert p.integral(2.0, 4.0) == pytest.approx(0.0)
        assert p.mean_over(-3.0, -1.0) == pytest.approx(0.0)
        # Half inside, half outside: the mean dilutes accordingly.
        assert p.mean_over(1.0, 3.0) == pytest.approx(2.5)

    def test_restrict_selects_columns(self):
        loads = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        p = BackgroundProfile(3, 0.0, 2.0, [0.0, 1.0, 2.0], loads)
        sub = p.restrict([2, 0])
        assert sub.num_edges == 2
        np.testing.assert_array_equal(sub.loads, loads[:, [2, 0]])
        np.testing.assert_array_equal(
            sub.mean_over(0.0, 2.0), p.mean_over(0.0, 2.0)[[2, 0]]
        )


def mean_over_reference(profile, t0, t1):
    """The original scalar query: ``(F(t1) - F(t0)) / (t1 - t0)`` with
    each ``F`` read by its own :func:`numpy.searchsorted` — the pinning
    oracle for the batched :meth:`BackgroundProfile.means`."""
    times, loads = profile.times, profile.loads
    cum = np.zeros((len(times), profile.num_edges))
    np.cumsum(loads * np.diff(times)[:, None], axis=0, out=cum[1:])

    def value_at(t):
        t = min(max(t, float(times[0])), float(times[-1]))
        j = min(
            int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2
        )
        return cum[j] + (t - times[j]) * loads[j]

    out = (value_at(t1) - value_at(t0)) / (t1 - t0)
    np.maximum(out, 0.0, out=out)
    return out


class TestBatchedMeans:
    @settings(max_examples=60, deadline=None)
    @given(case=step_profiles(), data=st.data())
    def test_rows_bit_identical_to_mean_over(self, case, data):
        profile, times, _ = case
        horizon = float(times[-1])
        # Queries start before the support, inside it and past it, and
        # may reach far beyond the horizon.
        t0s = data.draw(
            st.lists(st.floats(-3.0, horizon + 2.0), min_size=1, max_size=8)
        )
        t1s = [
            t0 + data.draw(st.floats(1e-3, horizon + 4.0)) for t0 in t0s
        ]
        rows = profile.means(t0s, t1s)
        assert rows.shape == (len(t0s), profile.num_edges)
        for row, t0, t1 in zip(rows, t0s, t1s):
            assert np.array_equal(row, profile.mean_over(t0, t1))
            assert np.array_equal(row, mean_over_reference(profile, t0, t1))

    def test_one_piece_profile(self):
        p = BackgroundProfile(2, 0.0, 1.0, [0.0, 1.0], [[2.0, 3.0]])
        queries = [(-2.0, -1.0), (-1.0, 0.5), (0.25, 0.75), (0.5, 3.0),
                   (1.0, 2.0), (2.0, 5.0)]
        rows = p.means(*zip(*queries))
        for row, (t0, t1) in zip(rows, queries):
            assert np.array_equal(row, p.mean_over(t0, t1))
            assert np.array_equal(row, mean_over_reference(p, t0, t1))
        np.testing.assert_array_equal(rows[0], [0.0, 0.0])
        np.testing.assert_array_equal(rows[2], [2.0, 3.0])
        np.testing.assert_array_equal(rows[5], [0.0, 0.0])

    def test_empty_batch(self):
        p = BackgroundProfile(3, 0.0, 1.0, [0.0, 1.0], [[1.0, 2.0, 3.0]])
        assert p.means([], []).shape == (0, 3)

    @pytest.mark.parametrize("bad", [(0.5, 0.5), (0.75, 0.25)])
    def test_degenerate_span_rejected(self, bad):
        p = BackgroundProfile(1, 0.0, 1.0, [0.0, 1.0], [[2.0]])
        with pytest.raises(ValidationError, match="positive length"):
            p.means([0.0, bad[0]], [1.0, bad[1]])


# ----------------------------------------------------------------------
# WindowAccountant views: bincount pinned to the reference loop,
# profile pinned to integrate back to the mean vector.
# ----------------------------------------------------------------------


def background_reference(acct, start, end):
    """The original window-averaged background loop over the accountant's
    live pieces: the pinning oracle for the vectorized
    :meth:`WindowAccountant.background`."""
    loads = np.zeros(acct.topology.num_edges)
    span = end - start
    totals: dict[int, float] = {}
    for s, e, r, eid in zip(*(column.tolist() for column in acct.pieces)):
        overlap = min(e, end) - max(s, start)
        if overlap > 0.0:
            totals[eid] = totals.get(eid, 0.0) + r * overlap
    for eid, total in totals.items():
        if total > 0.0:
            loads[eid] = total / span
    return loads


LINE4 = line(4)
QUAD = PowerModel.quadratic()
PATHS = [
    ("n0", "n1"),
    ("n1", "n2"),
    ("n2", "n3"),
    ("n0", "n1", "n2"),
    ("n1", "n2", "n3"),
    ("n0", "n1", "n2", "n3"),
]


@st.composite
def committed_accountants(draw):
    """An accountant with random committed single-segment schedules."""
    acct = WindowAccountant(LINE4, QUAD)
    n = draw(st.integers(0, 12))
    for i in range(n):
        path = PATHS[draw(st.integers(0, len(PATHS) - 1))]
        start = draw(st.floats(0.0, 10.0))
        dur = draw(st.floats(0.125, 6.0))
        rate = draw(st.floats(0.05, 3.0))
        flow = Flow(
            id=f"f{i}",
            src=path[0],
            dst=path[-1],
            size=rate * dur,
            release=start,
            deadline=start + dur,
        )
        acct.commit(
            FlowSchedule(
                flow=flow,
                path=path,
                segments=(Segment(start=start, end=start + dur, rate=rate),),
            )
        )
    return acct


class TestAccountantViews:
    @settings(max_examples=60, deadline=None)
    @given(acct=committed_accountants(), data=st.data())
    def test_background_bit_identical_to_reference(self, acct, data):
        start = data.draw(st.floats(0.0, 12.0))
        end = start + data.draw(st.floats(0.25, 6.0))
        fast = acct.background(start, end)
        slow = background_reference(acct, start, end)
        assert np.array_equal(fast, slow)  # bit-identical, not approx

    @settings(max_examples=60, deadline=None)
    @given(acct=committed_accountants(), data=st.data())
    def test_profile_mean_is_the_pinned_vector(self, acct, data):
        start = data.draw(st.floats(0.0, 12.0))
        end = start + data.draw(st.floats(0.25, 6.0))
        profile = acct.background_profile(start, end)
        # Integrating the pieces reproduces the accountant's
        # (reference-pinned) window-mean vector to fp accuracy.
        np.testing.assert_allclose(
            profile.mean_over(start, end),
            acct.background(start, end),
            rtol=1e-9,
            atol=1e-12,
        )

    @settings(max_examples=40, deadline=None)
    @given(acct=committed_accountants(), data=st.data())
    def test_profile_resolves_subintervals_exactly(self, acct, data):
        start = data.draw(st.floats(0.0, 10.0))
        end = start + data.draw(st.floats(0.5, 6.0))
        profile = acct.background_profile(start, end)
        a = data.draw(st.floats(start, end - 0.1))
        b = data.draw(st.floats(a + 0.05, end + 4.0))
        # Oracle: the reference loop over an arbitrary query window.
        np.testing.assert_allclose(
            profile.mean_over(a, b),
            background_reference(acct, a, b),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_empty_accountant_views(self):
        acct = WindowAccountant(LINE4, QUAD)
        assert np.array_equal(
            acct.background(0.0, 1.0), np.zeros(LINE4.num_edges)
        )
        profile = acct.background_profile(0.0, 1.0)
        assert profile.num_pieces == 1
        assert np.array_equal(
            profile.mean_over(0.0, 1.0), np.zeros(LINE4.num_edges)
        )

    def test_profile_support_reaches_last_piece(self):
        acct = WindowAccountant(LINE4, QUAD)
        flow = Flow(
            id="f", src="n0", dst="n1", size=9.0, release=0.0, deadline=9.0
        )
        acct.commit(
            FlowSchedule(
                flow=flow,
                path=("n0", "n1"),
                segments=(Segment(start=0.0, end=9.0, rate=1.0),),
            )
        )
        profile = acct.background_profile(0.0, 2.0)
        assert profile.times[-1] == pytest.approx(9.0)
        eid = LINE4.edge_id(("n0", "n1"))
        # Beyond the window but inside the piece: full rate, not a mean.
        assert profile.mean_over(5.0, 7.0)[eid] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Whole-replay pins through the accountant seam.
# ----------------------------------------------------------------------


class _ReferenceAccountant(WindowAccountant):
    """Accountant whose window-mean :meth:`background` runs the retained
    loop — the view greedy fault repair routes committed flows on."""

    def background(self, start, end):
        return background_reference(self, start, end)


class _ReferenceEngine(ReplayEngine):
    def _accountant(self):
        return _ReferenceAccountant(self._topology, self._power)


def _small_trace(topology, seed=7):
    spec = TraceSpec(
        arrivals=PoissonProcess(3.0),
        duration=20.0,
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=seed,
    )
    return list(generate_trace(topology, spec))


SEAM_POLICIES = [
    ("greedy", lambda: GreedyDensityPolicy()),
    ("p2", lambda: PowerOfTwoPolicy(seed=0)),
    ("least", lambda: LeastLoadedPolicy()),
    ("online", lambda: OnlineDensityPolicy()),
    (
        "relax-warm",
        lambda: RelaxationRoundingPolicy(seed=0, fw_max_iterations=25),
    ),
    (
        "relax-cold",
        lambda: ColdRelaxationPolicy(seed=0, fw_max_iterations=25),
    ),
]


class TestMeanModeReferencePin:
    """The accountant's window-mean view, pinned where it is still read:
    greedy fault repair routes every disrupted flow on
    :meth:`WindowAccountant.background`."""

    @pytest.mark.parametrize(
        "factory",
        [f for _, f in SEAM_POLICIES],
        ids=[n for n, _ in SEAM_POLICIES],
    )
    def test_replay_bit_identical_to_reference_loop(
        self, ft4, quadratic, factory
    ):
        flows = _small_trace(ft4)
        faults = FaultSchedule.generate(
            ft4, rate=0.3, duration=20.0, mttr=4.0, seed=3
        )
        fast = ReplayEngine(
            ft4, quadratic, factory(), window=5.0, faults=faults
        ).run(iter(flows))
        slow = _ReferenceEngine(
            ft4, quadratic, factory(), window=5.0, faults=faults
        ).run(iter(flows))
        # Not vacuous: links failed and repair re-routed committed flows.
        assert fast.link_failures > 0 and fast.flows_rerouted > 0
        assert fast == slow  # every field bit-identical

    def test_interval_mode_serves_and_verifies(self, ft4, quadratic):
        flows = _small_trace(ft4, seed=13)
        report = ReplayEngine(
            ft4,
            quadratic,
            RelaxationRoundingPolicy(seed=0, fw_max_iterations=25),
            window=5.0,
        ).run(iter(flows))
        assert report.flows_served == len(flows)
        assert report.deadline_misses == 0
        assert report.capacity_violations == 0
        assert report.total_energy > 0.0
