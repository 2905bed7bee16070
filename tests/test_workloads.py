"""Tests for workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.flows import TimeGrid, incast, paper_workload, shuffle


class TestPaperWorkload:
    def test_respects_horizon_and_span(self, ft4):
        flows = paper_workload(ft4, 30, horizon=(1.0, 100.0), seed=0)
        assert len(flows) == 30
        for f in flows:
            assert 1.0 <= f.release < f.deadline <= 100.0
            assert f.span_length >= 1.0
            assert f.size > 0

    def test_sizes_follow_normal_10_3(self, ft4):
        flows = paper_workload(ft4, 400, seed=1)
        sizes = np.array([f.size for f in flows])
        assert 9.0 < sizes.mean() < 11.0
        assert 2.0 < sizes.std() < 4.0

    def test_endpoints_are_hosts(self, ft4):
        hosts = set(ft4.hosts)
        for f in paper_workload(ft4, 20, seed=2):
            assert f.src in hosts and f.dst in hosts and f.src != f.dst

    def test_seed_determinism(self, ft4):
        a = paper_workload(ft4, 10, seed=5)
        b = paper_workload(ft4, 10, seed=5)
        assert [(f.src, f.dst, f.size, f.release, f.deadline) for f in a] == [
            (f.src, f.dst, f.size, f.release, f.deadline) for f in b
        ]

    def test_different_seeds_differ(self, ft4):
        a = paper_workload(ft4, 10, seed=5)
        b = paper_workload(ft4, 10, seed=6)
        assert [f.release for f in a] != [f.release for f in b]

    def test_accepts_generator(self, ft4):
        rng = np.random.default_rng(7)
        flows = paper_workload(ft4, 5, seed=rng)
        assert len(flows) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_flows=0),
            dict(horizon=(5.0, 5.0)),
            dict(min_span=0.0),
            dict(min_span=1000.0),
        ],
    )
    def test_invalid_parameters(self, ft4, kwargs):
        base = dict(num_flows=5)
        base.update(kwargs)
        with pytest.raises(ValidationError):
            paper_workload(ft4, **base)

    def test_needs_two_hosts(self):
        from repro.topology import parallel_paths

        # parallel_paths has exactly 2 hosts; works.
        flows = paper_workload(parallel_paths(2), 3, seed=0)
        assert all({f.src, f.dst} == {"src", "dst"} for f in flows)


class TestIncast:
    def test_structure(self, ft4):
        agg = ft4.hosts[0]
        flows = incast(ft4, agg, num_workers=5, response_size=2.0, deadline=3.0)
        assert len(flows) == 5
        for f in flows:
            assert f.dst == agg and f.src != agg
            assert f.size == 2.0 and f.deadline == 3.0

    def test_distinct_workers(self, ft4):
        flows = incast(ft4, ft4.hosts[0], 8, 1.0, seed=4)
        assert len({f.src for f in flows}) == 8

    def test_jitter_staggers_releases(self, ft4):
        flows = incast(
            ft4, ft4.hosts[0], 6, 1.0, release=0.0, deadline=5.0,
            jitter=2.0, seed=3,
        )
        releases = [f.release for f in flows]
        assert all(0.0 <= r <= 2.0 for r in releases)
        assert len(set(releases)) > 1

    def test_invalid(self, ft4):
        with pytest.raises(ValidationError):
            incast(ft4, "missing", 3, 1.0)
        with pytest.raises(ValidationError):
            incast(ft4, ft4.hosts[0], 0, 1.0)
        with pytest.raises(ValidationError):
            incast(ft4, ft4.hosts[0], 3, 1.0, jitter=2.0, deadline=1.0)


class TestShuffle:
    def test_all_ordered_pairs(self, ft4):
        parts = list(ft4.hosts[:3])
        flows = shuffle(ft4, parts, volume=1.5)
        assert len(flows) == 6
        pairs = {(f.src, f.dst) for f in flows}
        assert len(pairs) == 6

    def test_invalid(self, ft4):
        with pytest.raises(ValidationError):
            shuffle(ft4, [ft4.hosts[0]], 1.0)
        with pytest.raises(ValidationError):
            shuffle(ft4, [ft4.hosts[0], ft4.hosts[0]], 1.0)
        with pytest.raises(ValidationError):
            shuffle(ft4, ["zz", ft4.hosts[0]], 1.0)


class TestSizeDistributions:
    def test_workload_grid_compatible(self, ft4):
        flows = paper_workload(ft4, 25, seed=9)
        grid = TimeGrid(flows)
        assert grid.num_intervals <= 2 * len(flows) - 1
