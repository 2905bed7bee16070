"""Tests for piecewise-constant timelines and blocked-time structures."""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.scheduling import PiecewiseConstant, merge_segments, overlap_length
from repro.scheduling.timeline import BlockedTimeline


class TestMergeSegments:
    def test_merges_overlap(self):
        assert merge_segments([(0, 2), (1, 3)]) == [(0, 3)]

    def test_merges_adjacent(self):
        assert merge_segments([(0, 1), (1, 2)]) == [(0, 2)]

    def test_keeps_gaps(self):
        assert merge_segments([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_drops_empty_keeps_slivers(self):
        # Zero-length and inverted intervals vanish, but sub-tol slivers
        # carry measure and must survive (see the drift test below).
        assert merge_segments([(1, 1), (3, 2)]) == []
        assert merge_segments([(1, 1), (2, 2.0000000000001)]) == [
            (2, 2.0000000000001)
        ]

    def test_unsorted_input(self):
        assert merge_segments([(5, 6), (0, 1), (0.5, 2)]) == [(0, 2), (5, 6)]

    @staticmethod
    def _union_measure(segments):
        """Brute-force exact union measure via elementary intervals."""
        points = sorted({p for seg in segments for p in seg})
        total = 0.0
        for a, b in zip(points, points[1:]):
            mid = (a + b) / 2.0
            if any(s <= mid < e for s, e in segments):
                total += b - a
        return total

    # Mix of ordinary segments and sub-tolerance slivers, on a coarse grid
    # so exact-arithmetic expectations hold.
    _segments = st.lists(
        st.tuples(
            st.integers(0, 40).map(lambda k: k / 4.0),
            st.one_of(
                st.floats(0.25, 3.0, allow_nan=False),
                st.floats(1e-16, 1e-13, allow_nan=False),
            ),
        ).map(lambda p: (p[0], p[0] + p[1])),
        min_size=1,
        max_size=12,
    )

    @given(_segments)
    def test_measure_never_undershoots_union(self, segments):
        tol = 1e-12
        merged = merge_segments(segments, tol=tol)
        measure = sum(e - s for s, e in merged)
        union = self._union_measure([(s, e) for s, e in segments if e > s])
        # No loss (slivers kept), bounded inflation (<= tol per closed gap).
        assert measure >= union - 1e-9
        assert measure <= union + tol * len(segments) + 1e-9

    @given(_segments)
    def test_result_sorted_disjoint_and_covering(self, segments):
        tol = 1e-12
        merged = merge_segments(segments, tol=tol)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2 and s2 - e1 > tol  # disjoint beyond tolerance
        for s, e in segments:
            if e > s:
                mid = (s + e) / 2.0
                assert any(a <= mid <= b for a, b in merged)

    def test_exact_with_zero_tolerance(self):
        segments = [(0.0, 1.0), (1.0 + 1e-14, 2.0), (0.5, 0.5 + 1e-15)]
        merged = merge_segments(segments, tol=0.0)
        assert sum(e - s for s, e in merged) == pytest.approx(
            self._union_measure(segments), abs=1e-15
        )
        # The 1e-14 gap is genuine at tol=0 and must not be coalesced.
        assert len(merged) == 2


class TestOverlapLength:
    def test_basic(self):
        assert overlap_length([(0, 2), (4, 6)], 1, 5) == pytest.approx(2.0)

    def test_disjoint(self):
        assert overlap_length([(0, 1)], 2, 3) == 0.0


class TestPiecewiseConstant:
    def test_single_segment(self):
        pc = PiecewiseConstant()
        pc.add(1, 3, 2.0)
        assert pc(2.0) == 2.0
        assert pc(0.0) == 0.0
        assert pc(3.0) == 0.0  # right-open
        assert pc.integrate() == pytest.approx(4.0)

    def test_stacking(self):
        pc = PiecewiseConstant()
        pc.add(0, 2, 3.0)
        pc.add(1, 4, 1.0)
        assert pc(0.5) == 3.0
        assert pc(1.5) == 4.0
        assert pc(3.0) == 1.0
        assert pc.maximum() == 4.0
        assert pc.integrate() == pytest.approx(3 * 2 + 1 * 3)

    def test_integrate_transform(self):
        pc = PiecewiseConstant()
        pc.add(0, 2, 3.0)
        pc.add(1, 4, 1.0)
        # x^2: 9*1 + 16*1 + 1*2 = 27
        assert pc.integrate(lambda v: v * v) == pytest.approx(27.0)

    def test_zero_value_ignored(self):
        pc = PiecewiseConstant()
        pc.add(0, 5, 0.0)
        assert pc.is_empty()

    def test_negative_length_rejected(self):
        pc = PiecewiseConstant()
        with pytest.raises(ValidationError):
            pc.add(3, 1, 2.0)

    def test_support_length(self):
        pc = PiecewiseConstant()
        pc.add(0, 1, 1.0)
        pc.add(2, 3, 1.0)
        assert pc.support_length() == pytest.approx(2.0)

    def test_support_with_cancellation(self):
        pc = PiecewiseConstant()
        pc.add(0, 2, 1.0)
        pc.add(0, 2, -1.0)
        assert pc.support_length() == 0.0

    def test_pieces_cover_breakpoints(self):
        pc = PiecewiseConstant()
        pc.add(0, 1, 1.0)
        pc.add(2, 3, 5.0)
        pieces = pc.pieces()
        assert pieces == ((0, 1, 1.0), (1, 2, 0.0), (2, 3, 5.0))

    def test_incremental_recompile(self):
        pc = PiecewiseConstant()
        pc.add(0, 1, 1.0)
        assert pc.integrate() == pytest.approx(1.0)
        pc.add(1, 2, 2.0)  # after a query, must recompile
        assert pc.integrate() == pytest.approx(3.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 10, allow_nan=False),
                st.floats(0.1, 5, allow_nan=False),
                st.floats(0.1, 4, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_integral_equals_sum_of_rectangles(self, raw):
        pc = PiecewiseConstant()
        expected = 0.0
        for start, length, value in raw:
            pc.add(start, start + length, value)
            expected += length * value
        assert pc.integrate() == pytest.approx(expected, rel=1e-9)


def _from_scratch_columns(merged):
    """Starts, ends and the sequential prefix sum of merged segments."""
    return (
        [s for s, _ in merged],
        [e for _, e in merged],
        list(accumulate((e - s for s, e in merged), initial=0.0)),
    )


class TestBlockedTimeline:
    def test_overlap_exact(self):
        bt = BlockedTimeline()
        bt.add_many([(0, 2), (5, 7)])
        assert bt.overlap(1, 6) == pytest.approx(2.0)
        assert bt.available(1, 6) == pytest.approx(3.0)

    def test_merging_on_add(self):
        bt = BlockedTimeline()
        bt.add_many([(0, 2)])
        bt.add_many([(1, 3)])
        assert bt.segments() == ((0, 3),)

    def test_bool(self):
        bt = BlockedTimeline()
        assert not bt
        bt.add_many([(0, 1)])
        assert bt

    def test_many_slivers_do_not_leak_measure(self):
        """Sub-tolerance EDF slivers must still count as blocked time:
        dropping them made ``available`` over-report by their summed
        measure (the regression the merge_segments fix pins)."""
        n, sliver = 200, 4e-13
        bt = BlockedTimeline()
        bt.add_many([(i * 0.005, i * 0.005 + sliver) for i in range(n)])
        blocked = bt.overlap(0.0, 1.0)
        assert blocked == pytest.approx(n * sliver, rel=1e-6)
        assert bt.available(0.0, 1.0) == pytest.approx(
            1.0 - n * sliver, rel=1e-12
        )

    @given(
        st.lists(
            st.tuples(st.floats(0, 20, allow_nan=False), st.floats(0.1, 5)),
            max_size=10,
        ),
        st.floats(0, 20, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
    )
    def test_overlap_matches_bruteforce(self, raw, a, length):
        segments = [(s, s + l) for s, l in raw]
        bt = BlockedTimeline()
        bt.add_many(segments)
        b = a + length
        expected = overlap_length(list(bt.segments()), a, b)
        assert bt.overlap(a, b) == pytest.approx(expected, abs=1e-9)

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(0, 20, allow_nan=False),
                    st.floats(-0.1, 5, allow_nan=False),
                ),
                max_size=8,
            ),
            max_size=6,
        )
    )
    # Splice cases, as (start, length) batches: a block bridging two
    # reserved ones; one starting within tol after the last; one before
    # the first; blocks sharing a start with a reserved one.
    @example([[(0.0, 1.0), (2.0, 1.0), (4.0, 1.0), (7.0, 1.0)], [(2.5, 2.0)]])
    @example([[(0.0, 1.0), (2.0, 1.0)], [(3.0 + 5e-13, 1.0)]])
    @example([[(2.0, 1.0), (5.0, 1.0)], [(0.0, 1.0)]])
    @example(
        [
            [(0.0, 1.0), (2.0, 1.0), (5.0, 1.0), (8.0, 1.0)],
            [(5.0, 0.5)],
            [(5.0, 2.0)],
        ]
    )
    def test_incremental_add_many_pins_full_remerge(self, rounds):
        """The spliced merge must be bit-identical to the reference
        behavior of re-merging the full segment list each call and
        rebuilding every column from scratch (including tolerance
        coalescing order and degenerate segments)."""
        bt = BlockedTimeline()
        reference: list[tuple[float, float]] = []
        for batch in rounds:
            segments = [(s, s + l) for s, l in batch]
            bt.add_many(segments)
            reference = merge_segments(reference + segments)
            assert bt.segments() == tuple(reference)
            assert bt.columns() == _from_scratch_columns(reference)

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(0, 20, allow_nan=False),
                    st.floats(-0.1, 5, allow_nan=False),
                ),
                max_size=6,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_one_merge_of_a_union_equals_a_merge_per_batch(self, batches):
        """Most-Critical-First merges a round's segments into a link once,
        as one union; the reference merges them flow by flow.  Both must
        leave identical segments and prefix sums."""
        base, *rest = [[(s, s + l) for s, l in batch] for batch in batches]
        per_batch, union = BlockedTimeline(), BlockedTimeline()
        per_batch.add_many(base)
        union.add_many(base)
        for batch in rest:
            per_batch.add_many(batch)
        union.add_many([seg for batch in rest for seg in batch])
        assert union.segments() == per_batch.segments()
        assert union.columns() == per_batch.columns()

    def test_columns_are_live_views(self):
        """``columns()`` hands out the timeline's own lists, which a
        merge updates in place."""
        bt = BlockedTimeline()
        bt.add_many([(0.0, 1.0)])
        starts, ends, prefix = bt.columns()
        bt.add_many([(0.5, 2.0), (3.0, 4.0)])
        assert (starts, ends, prefix) == bt.columns()
        assert (starts, ends, prefix) == ([0.0, 3.0], [2.0, 4.0], [0.0, 2.0, 3.0])

    def test_add_many_empty_batch_is_noop(self):
        bt = BlockedTimeline()
        bt.add_many([(0.0, 1.0), (2.0, 3.0)])
        before = bt.segments()
        bt.add_many([])
        bt.add_many([(5.0, 4.0)])  # inverted segments are dropped
        assert bt.segments() == before
        assert bt.overlap(0.0, 3.0) == pytest.approx(2.0)
