"""Tests for preemptive EDF with blocked time.

Both engines are exercised: the dispatcher's scenarios run through the
suites below, and `TestArrayEnginePinned` pins `edf_schedule_arrays`
against the scalar engine `edf_schedule_scalar` on a dyadic-rational
grid (multiples of 1/8, exact in binary floating point) where the
available-time transform is exact arithmetic — so the engines must agree
**bit for bit**, including which instances are infeasible.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError, ValidationError
from repro.scheduling import (
    EdfJob,
    edf_schedule,
    edf_schedule_arrays,
    edf_schedule_scalar,
)


def total(segments):
    return sum(e - s for s, e in segments)


class TestBasics:
    def test_single_job(self):
        out = edf_schedule([EdfJob("a", 0, 10, 3)])
        assert out["a"] == [(0, 3)]

    def test_two_jobs_edf_order(self):
        out = edf_schedule(
            [EdfJob("late", 0, 10, 2), EdfJob("soon", 0, 3, 2)]
        )
        assert out["soon"] == [(0, 2)]
        assert out["late"] == [(2, 4)]

    def test_preemption_on_release(self):
        out = edf_schedule(
            [EdfJob("bg", 0, 10, 4), EdfJob("urgent", 1, 3, 2)]
        )
        assert out["urgent"] == [(1, 3)]
        assert out["bg"] == [(0, 1), (3, 6)]

    def test_blocked_time_skipped(self):
        out = edf_schedule([EdfJob("a", 0, 10, 3)], blocked=[(1, 2)])
        assert out["a"] == [(0, 1), (2, 4)]

    def test_blocked_merging(self):
        out = edf_schedule(
            [EdfJob("a", 0, 10, 2)], blocked=[(0, 1), (1, 2), (0.5, 1.5)]
        )
        assert out["a"] == [(2, 4)]

    def test_idle_gap_between_releases(self):
        out = edf_schedule(
            [EdfJob("a", 0, 2, 1), EdfJob("b", 5, 7, 1)]
        )
        assert out["a"] == [(0, 1)]
        assert out["b"] == [(5, 6)]

    def test_empty_input(self):
        assert edf_schedule([]) == {}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            edf_schedule([EdfJob("a", 0, 5, 1), EdfJob("a", 0, 5, 1)])

    def test_job_validation(self):
        with pytest.raises(ValidationError):
            EdfJob("a", 5, 5, 1)
        with pytest.raises(ValidationError):
            EdfJob("a", 0, 5, 0)

    def test_sub_eps_gap_before_a_block_is_used(self):
        """A free gap of 1e-9 s before a reservation is available time,
        as the critical-interval scorer counts it.  Skipping it left
        ~1e-9 of work that could follow no block, and the scalar engine
        then looped forever instead of finishing."""
        blocked = [(2e-09, 3.3311739721768316), (8.320253573934155, 12.0)]
        job = EdfJob(3, 1e-09, 8.807427728371055, 4.989079602757323)
        out = edf_schedule_scalar([job], blocked=blocked)
        assert out[3] == [(1e-09, 2e-09), (3.3311739721768316, out[3][1][1])]
        assert out[3][1][1] <= 8.320253573934155
        assert total(out[3]) == pytest.approx(job.duration, abs=1e-9)


class TestInfeasibility:
    def test_overfull_window(self):
        with pytest.raises(InfeasibleError):
            edf_schedule([EdfJob("a", 0, 1, 2)])

    def test_contention_infeasible(self):
        with pytest.raises(InfeasibleError):
            edf_schedule([EdfJob("a", 0, 2, 2), EdfJob("b", 0, 2, 1)])

    def test_blocked_makes_infeasible(self):
        with pytest.raises(InfeasibleError):
            edf_schedule([EdfJob("a", 0, 3, 2)], blocked=[(0, 2)])

    def test_exactly_tight_is_feasible(self):
        out = edf_schedule(
            [EdfJob("a", 0, 2, 2), EdfJob("b", 2, 4, 2)]
        )
        assert total(out["a"]) == pytest.approx(2)
        assert total(out["b"]) == pytest.approx(2)


def _assert_valid_schedule(jobs, blocked, out):
    # Durations satisfied, windows respected, blocked avoided, no overlap.
    all_segments = []
    for job in jobs:
        segs = out[job.id]
        assert total(segs) == pytest.approx(job.duration, abs=1e-6)
        for s, e in segs:
            assert s >= job.release - 1e-9
            assert e <= job.deadline + 1e-6
            for bs, be in blocked:
                assert e <= bs + 1e-9 or s >= be - 1e-9
        all_segments.extend(segs)
    all_segments.sort()
    for (s1, e1), (s2, e2) in zip(all_segments, all_segments[1:]):
        assert e1 <= s2 + 1e-9


class TestScheduleValidity:
    def test_complex_instance(self):
        jobs = [
            EdfJob("a", 0, 4, 1.5),
            EdfJob("b", 1, 3, 1.0),
            EdfJob("c", 0, 8, 2.0),
            EdfJob("d", 5, 8, 1.0),
        ]
        blocked = [(3.5, 4.5)]
        out = edf_schedule(jobs, blocked=blocked)
        _assert_valid_schedule(jobs, blocked, out)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_feasible_instances(self, data):
        """Generate laid-out jobs (provably feasible), shuffle, re-run EDF."""
        n = data.draw(st.integers(1, 6))
        cursor = 0.0
        jobs = []
        for i in range(n):
            gap = data.draw(st.floats(0, 2))
            duration = data.draw(st.floats(0.1, 3))
            slack_before = data.draw(st.floats(0, 2))
            slack_after = data.draw(st.floats(0, 2))
            start = cursor + gap
            jobs.append(
                EdfJob(
                    id=i,
                    release=max(0.0, start - slack_before),
                    deadline=start + duration + slack_after,
                    duration=duration,
                )
            )
            cursor = start + duration
        out = edf_schedule(jobs)
        _assert_valid_schedule(jobs, [], out)


#: Dyadic rationals: exact in float64, so both engines' arithmetic is
#: exact and outputs must match bit for bit.
_dyadic = st.integers(0, 160).map(lambda k: k / 8.0)
_dyadic_pos = st.integers(1, 40).map(lambda k: k / 8.0)


class TestArrayEnginePinned:
    """edf_schedule_arrays pinned bit-for-bit to the scalar engine."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_engines_agree_exactly(self, data):
        n = data.draw(st.integers(1, 12))
        jobs = []
        for i in range(n):
            release = data.draw(_dyadic)
            duration = data.draw(_dyadic_pos)
            slack = data.draw(_dyadic)
            jobs.append(
                EdfJob(
                    id=i,
                    release=release,
                    deadline=release + duration + slack,
                    duration=duration,
                )
            )
        blocked = []
        for _ in range(data.draw(st.integers(0, 4))):
            start = data.draw(_dyadic)
            blocked.append((start, start + data.draw(_dyadic_pos)))

        try:
            reference = edf_schedule_scalar(jobs, blocked)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                edf_schedule_arrays(jobs, blocked)
            return
        assert edf_schedule_arrays(jobs, blocked) == reference

    def test_scenarios_through_array_engine(self):
        """The basic dispatcher scenarios, forced through the array path."""
        out = edf_schedule_arrays(
            [EdfJob("bg", 0, 10, 4), EdfJob("urgent", 1, 3, 2)]
        )
        assert out["urgent"] == [(1, 3)]
        assert out["bg"] == [(0, 1), (3, 6)]
        out = edf_schedule_arrays([EdfJob("a", 0, 10, 3)], blocked=[(1, 2)])
        assert out["a"] == [(0, 1), (2, 4)]
        out = edf_schedule_arrays(
            [EdfJob("a", 0, 10, 2)], blocked=[(0, 1), (1, 2), (0.5, 1.5)]
        )
        assert out["a"] == [(2, 4)]
        assert edf_schedule_arrays([]) == {}
        with pytest.raises(ValidationError):
            edf_schedule_arrays([EdfJob("a", 0, 5, 1), EdfJob("a", 0, 5, 1)])
        with pytest.raises(InfeasibleError):
            edf_schedule_arrays([EdfJob("a", 0, 3, 2)], blocked=[(0, 2)])

    def test_run_spanning_many_blocks_splits(self):
        """One long job across a lattice of blocks: the batched back-map
        must cut exactly at each straddled block."""
        blocked = [(1 + 2 * k, 2 + 2 * k) for k in range(5)]
        out = edf_schedule_arrays([EdfJob("a", 0, 20, 6)], blocked=blocked)
        assert out["a"] == [
            (0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11),
        ]
        assert out == edf_schedule_scalar(
            [EdfJob("a", 0, 20, 6)], blocked=blocked
        )

    def test_deadline_verdict_decided_in_real_time(self):
        """A job with sub-tolerance residual work at its deadline followed
        by a blocked segment must still be infeasible: available-time
        distances under-estimate real lateness, so the verdict has to be
        taken in real coordinates (regression: the array engine accepted
        this and scheduled work 10s past the deadline)."""
        jobs = [EdfJob("A", 0, 5, 5), EdfJob("J", 0, 10, 5 + 5e-8)]
        blocked = [(10, 20)]
        with pytest.raises(InfeasibleError):
            edf_schedule_scalar(jobs, blocked)
        with pytest.raises(InfeasibleError):
            edf_schedule_arrays(jobs, blocked)

    def test_finish_on_block_start_is_on_time(self):
        """Finishing exactly at a block that starts at the deadline is
        fine — the run ended at the block *start*, not its end."""
        jobs = [EdfJob("a", 0, 4, 4)]
        blocked = [(4, 9)]
        assert edf_schedule_arrays(jobs, blocked) == {"a": [(0, 4)]}
        assert edf_schedule_scalar(jobs, blocked) == {"a": [(0, 4)]}

    def test_dispatcher_uses_array_engine_at_scale(self):
        jobs = [
            EdfJob(i, release=i * 0.25, deadline=i * 0.25 + 5.0, duration=0.2)
            for i in range(100)
        ]
        assert edf_schedule(jobs) == edf_schedule_arrays(jobs)
