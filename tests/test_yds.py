"""Tests for the YDS speed-scaling substrate."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.scheduling import (
    YdsJob,
    critical_interval,
    critical_interval_arrays,
    yds_schedule,
)
from repro.scheduling.timeline import BlockedTimeline


class TestKnownInstances:
    def test_single_job_runs_at_density(self):
        res = yds_schedule([YdsJob("a", 0, 4, 8)])
        assert res.speeds["a"] == pytest.approx(2.0)
        assert res.segments["a"] == ((0, 4),)

    def test_two_equal_window_jobs_share_speed(self):
        res = yds_schedule([YdsJob("a", 0, 2, 4), YdsJob("b", 0, 2, 2)])
        assert res.speeds["a"] == res.speeds["b"] == pytest.approx(3.0)

    def test_nested_tight_job_runs_faster(self):
        # Dense inner job [1,2] w=4 forces speed 4 there; outer job gets the rest.
        res = yds_schedule([YdsJob("in", 1, 2, 4), YdsJob("out", 0, 3, 2)])
        assert res.speeds["in"] == pytest.approx(4.0)
        assert res.speeds["out"] == pytest.approx(1.0)
        assert res.segments["out"] == ((0, 1), (2, 3))

    def test_paper_example1_transformed(self):
        """Example 1 reduces to SS-SP with works 6*sqrt(2) and 8 on [1,4]."""
        import math

        w1 = 6 * math.sqrt(2)
        res = yds_schedule(
            [YdsJob(1, 2, 4, w1), YdsJob(2, 1, 3, 8.0)]
        )
        expected = (8 + 6 * math.sqrt(2)) / 3
        assert res.speeds[1] == pytest.approx(expected)
        assert res.speeds[2] == pytest.approx(expected)

    def test_disjoint_jobs_independent_speeds(self):
        res = yds_schedule([YdsJob("a", 0, 2, 6), YdsJob("b", 10, 11, 1)])
        assert res.speeds["a"] == pytest.approx(3.0)
        assert res.speeds["b"] == pytest.approx(1.0)

    def test_energy_formula(self):
        res = yds_schedule([YdsJob("a", 0, 2, 4)])
        # speed 2 for 2 time units at alpha=2: 2^2 * 2 = 8
        assert res.energy(alpha=2.0) == pytest.approx(8.0)
        assert res.energy(alpha=3.0, mu=2.0) == pytest.approx(2 * 8 * 2)

    def test_completion_time(self):
        res = yds_schedule([YdsJob("a", 0, 4, 8)])
        assert res.completion_time("a") == pytest.approx(4.0)


#: A shift of 2^15 s: past 2^14 s, ``b + 1e-12 == b`` in float64.
FAR = 2.0**15


def _dyadic_jobs(shift: float) -> list[YdsJob]:
    """Three rounds whose intensities are all powers of two.

    Every duration and EDF boundary is then a dyadic rational that float64
    holds exactly at both magnitudes, so the shifted instance's speeds
    must equal the unshifted one's bit for bit.
    """
    return [
        YdsJob("x", shift + 0.0, shift + 0.125, 0.25),
        YdsJob("y", shift + 0.0, shift + 0.5, 0.25),
        YdsJob("z", shift + 0.25, shift + 0.375, 0.125),
    ]


class TestLargeAbsoluteTimes:
    """Deadlines at or past 2^14 s, where ``eps`` vanishes below an ulp."""

    def test_single_job_far_from_origin(self):
        res = yds_schedule([YdsJob(1, 20000.0, 20001.0, 2.0)])
        assert res.speeds[1] == 2.0
        assert res.segments[1] == ((20000.0, 20001.0),)

    def test_shifted_instance_speeds_equal_unshifted(self):
        near = yds_schedule(_dyadic_jobs(0.0))
        far = yds_schedule(_dyadic_jobs(FAR))
        assert dict(near.speeds) == {"x": 2.0, "y": 1.0, "z": 1.0}
        assert dict(far.speeds) == dict(near.speeds)
        for jid, segments in near.segments.items():
            assert far.segments[jid] == tuple(
                (s + FAR, e + FAR) for s, e in segments
            )

    def test_interval_ending_at_own_deadline_counts_the_job(self):
        jobs = _dyadic_jobs(FAR)
        a, b, intensity, contained = critical_interval(jobs)
        assert (a, b, intensity) == (FAR, FAR + 0.125, 2.0)
        assert [j.id for j in contained] == ["x"]


class TestValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ValidationError):
            yds_schedule([YdsJob("a", 0, 1, 1), YdsJob("a", 0, 1, 1)])

    def test_empty(self):
        with pytest.raises(ValidationError):
            yds_schedule([])

    def test_bad_job(self):
        with pytest.raises(ValidationError):
            YdsJob("a", 1, 1, 1)
        with pytest.raises(ValidationError):
            YdsJob("a", 0, 1, 0)


class TestCriticalInterval:
    def test_picks_densest(self):
        jobs = [YdsJob("a", 0, 4, 4), YdsJob("b", 1, 2, 3)]
        a, b, intensity, contained = critical_interval(jobs)
        assert (a, b) == (1, 2)
        assert intensity == pytest.approx(3.0)
        assert [j.id for j in contained] == ["b"]

    def test_respects_blocked_time(self):
        blocked = BlockedTimeline()
        blocked.add_many([(0, 1)])
        jobs = [YdsJob("a", 0, 2, 2)]
        a, b, intensity, _ = critical_interval(jobs, blocked)
        assert intensity == pytest.approx(2.0)  # only 1 unit available

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            critical_interval([])

    @pytest.mark.parametrize(
        "releases, deadlines, works",
        [
            (12, 10, 10),  # NumPy grid path
            (5, 4, 4),  # list enumeration path
            (4, 4, 3),  # short work column
        ],
        ids=["grid", "lists", "short-work"],
    )
    def test_unequal_columns_rejected(self, releases, deadlines, works):
        """Columns of unequal length are a ValidationError on either
        scorer; the grid used to answer with jobs that do not exist."""
        with pytest.raises(ValidationError, match="differ in length"):
            critical_interval_arrays(
                [0.5 * i for i in range(releases)],
                [0.5 * i + 2.0 for i in range(deadlines)],
                [1.0] * works,
            )


#: Job 5's span ends a hair (1e-9 s) before job 6's critical interval
#: starts blocking, so a later interval opens on a free gap of 1e-9 s
#: before a reservation.  EDF used to skip that gap, which the scorer
#: counts, and job 1 spilled past the next reservation to 7.40945.
_GAP_BEFORE_RESERVATION = [
    YdsJob(i, r, d, w)
    for i, (r, d, w) in enumerate(
        [
            (2.439957881284394, 3.439947881284394, 5.364338294295042),
            (2.580962091993844, 7.254512934097163, 4.914016563209232),
            (1.401298464324817e-45, 3.9152097334710447, 5.26145389639381),
            (7.073046013687071, 9.07013021077789, 5.236873789546344),
            (5.060802749000718, 7.409448107017308, 8.610450294594862),
            (1e-09, 0.800000001, 2.34864535801659),
            (0.001, 1.1874893931243733, 8.59063840647268),
        ]
    )
]


@st.composite
def job_sets(draw):
    n = draw(st.integers(1, 7))
    jobs = []
    for i in range(n):
        r = draw(st.floats(0, 10))
        length = draw(st.floats(0.5, 5))
        w = draw(st.floats(0.1, 10))
        jobs.append(YdsJob(i, r, r + length, w))
    return jobs


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(job_sets())
    @example(jobs=_GAP_BEFORE_RESERVATION)
    def test_schedule_valid_and_complete(self, jobs):
        res = yds_schedule(jobs)
        all_segs = []
        for job in jobs:
            segs = res.segments[job.id]
            speed = res.speeds[job.id]
            assert speed > 0
            done = sum(e - s for s, e in segs) * speed
            assert done == pytest.approx(job.work, rel=1e-6)
            for s, e in segs:
                assert s >= job.release - 1e-9
                assert e <= job.deadline + 1e-6
            all_segs.extend(segs)
        all_segs.sort()
        for (s1, e1), (s2, e2) in zip(all_segs, all_segs[1:]):
            assert e1 <= s2 + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(job_sets())
    def test_speeds_nonincreasing_across_rounds(self, jobs):
        """The first critical interval has the maximum intensity, so the
        highest speed in the final schedule equals it."""
        res = yds_schedule(jobs)
        _a, _b, top, _ = critical_interval(list(jobs))
        assert max(res.speeds.values()) == pytest.approx(top, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(job_sets())
    def test_optimality_against_uniform_slowdown(self, jobs):
        """Scaling every speed down by any factor breaks feasibility of the
        critical interval, so YDS speeds are pointwise necessary there —
        energy must not beat the convex reference for the single-link DCFS
        program (checked exactly in test_dcfs.py)."""
        res = yds_schedule(jobs)
        # The critical interval's demand/availability ratio bounds any
        # feasible schedule's peak speed from below.
        _a, _b, intensity, _ = critical_interval(list(jobs))
        assert max(res.speeds.values()) >= intensity - 1e-9
