"""Tests for randomized path rounding (Algorithm 2 steps 6-10).

The dict implementations (the oracles in `tests/oracles/rounding.py`)
are exercised directly, and the registry-id-space engine
(`aggregate_path_weights_array` / `sample_paths`) is pinned against
them: same weights, same sampled routes from the same generator stream,
same error and drift-warning behavior.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.oracles.rounding import aggregate_path_weights, sample_path
from repro.errors import ValidationError
from repro.flows import Flow
from repro.flows.intervals import Interval
from repro.routing import (
    aggregate_path_weights_array,
    argmax_paths,
    sample_paths,
)


def flow(release=0.0, deadline=4.0):
    return Flow(id=1, src="a", dst="b", size=4.0, release=release, deadline=deadline)


P1 = ("a", "x", "b")
P2 = ("a", "y", "b")


class TestAggregation:
    def test_weights_are_interval_length_weighted(self):
        f = flow()
        fractions = [
            (Interval(1, 0.0, 1.0), {P1: 1.0}),
            (Interval(2, 1.0, 4.0), {P2: 1.0}),
        ]
        weights = aggregate_path_weights(f, fractions)
        assert weights[P1] == pytest.approx(0.25)
        assert weights[P2] == pytest.approx(0.75)

    def test_mixed_fractions(self):
        f = flow(deadline=2.0)
        fractions = [
            (Interval(1, 0.0, 1.0), {P1: 0.5, P2: 0.5}),
            (Interval(2, 1.0, 2.0), {P1: 1.0}),
        ]
        weights = aggregate_path_weights(f, fractions)
        assert weights[P1] == pytest.approx(0.75)
        assert weights[P2] == pytest.approx(0.25)

    def test_weights_sum_to_one(self):
        f = flow()
        fractions = [
            (Interval(1, 0.0, 2.0), {P1: 0.3, P2: 0.7}),
            (Interval(2, 2.0, 4.0), {P1: 0.9, P2: 0.1}),
        ]
        weights = aggregate_path_weights(f, fractions)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_interval_outside_span_rejected(self):
        f = flow(release=1.0)
        with pytest.raises(ValidationError):
            aggregate_path_weights(f, [(Interval(1, 0.0, 2.0), {P1: 1.0})])

    def test_partial_coverage_rejected(self):
        f = flow()
        with pytest.raises(ValidationError):
            aggregate_path_weights(f, [(Interval(1, 0.0, 1.0), {P1: 1.0})])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_path_weights(flow(), [])

    def test_negative_fraction_rejected(self):
        f = flow()
        with pytest.raises(ValidationError):
            aggregate_path_weights(
                f, [(Interval(1, 0.0, 4.0), {P1: 1.5, P2: -0.5})]
            )

    def test_tolerates_solver_dust(self):
        f = flow()
        weights = aggregate_path_weights(
            f, [(Interval(1, 0.0, 4.0), {P1: 0.999999, P2: 1.1e-6})]
        )
        assert sum(weights.values()) == pytest.approx(1.0)


class TestSampling:
    def test_deterministic_given_seed(self):
        weights = {P1: 0.3, P2: 0.7}
        a = sample_path(weights, np.random.default_rng(42))
        b = sample_path(weights, np.random.default_rng(42))
        assert a == b

    def test_only_choice_always_selected(self):
        assert sample_path({P1: 1.0}, np.random.default_rng(0)) == P1

    def test_distribution_roughly_matches(self):
        weights = {P1: 0.2, P2: 0.8}
        rng = np.random.default_rng(7)
        draws = [sample_path(weights, rng) for _ in range(2000)]
        share = draws.count(P2) / len(draws)
        assert 0.74 <= share <= 0.86

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sample_path({}, np.random.default_rng(0))


class TestDriftWarning:
    def test_large_drift_warns_with_flow_id(self):
        f = flow()
        with pytest.warns(RuntimeWarning, match="flow 1"):
            weights = aggregate_path_weights(
                f, [(Interval(1, 0.0, 4.0), {P1: 0.7, P2: 0.31})]
            )
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_small_dust_does_not_warn(self):
        import warnings

        f = flow()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aggregate_path_weights(
                f, [(Interval(1, 0.0, 4.0), {P1: 0.9999999, P2: 2e-7})]
            )


def _relaxation(num_flows=30, seed=3, topo_k=4):
    """A real relaxation plus its flows (array + dict views available)."""
    from repro.core.relaxation import default_cost, solve_relaxation
    from repro.flows.intervals import TimeGrid
    from repro.flows.workloads import paper_workload
    from repro.power import PowerModel
    from repro.routing import FrankWolfeSolver
    from repro.topology import fat_tree

    topo = fat_tree(topo_k)
    flows = paper_workload(topo, num_flows, seed=seed)
    solver = FrankWolfeSolver(topo, default_cost(PowerModel.quadratic()))
    return flows, solve_relaxation(flows, solver, TimeGrid(flows))


class TestArrayEngine:
    """The registry-id-space engine pinned against the dict reference."""

    @pytest.fixture(scope="class")
    def relaxed(self):
        return _relaxation()

    @staticmethod
    def _contributions(relaxation):
        return [
            (iv.interval.length, iv.solution.arrays)
            for iv in relaxation.intervals
        ]

    def test_weights_match_dict_reference(self, relaxed):
        flows, relaxation = relaxed
        weights = aggregate_path_weights_array(
            list(flows), self._contributions(relaxation)
        )
        for f in flows:
            reference = aggregate_path_weights(
                f, relaxation.fractions_for_flow(f.id)
            )
            assert set(weights[f.id]) == set(reference)
            for path, value in reference.items():
                assert weights[f.id][path] == pytest.approx(value, abs=1e-12)

    def test_rows_are_name_sorted_distributions(self, relaxed):
        flows, relaxation = relaxed
        weights = aggregate_path_weights_array(
            list(flows), self._contributions(relaxation)
        )
        registry = weights.registry
        for slot in range(len(weights.flow_ids)):
            lo, hi = weights.indptr[slot], weights.indptr[slot + 1]
            assert hi > lo
            names = [registry.path(int(p)) for p in weights.path_ids[lo:hi]]
            assert names == sorted(names)
            assert float(weights.probs[lo:hi].sum()) == pytest.approx(1.0)

    def test_batched_sampling_matches_per_flow_stream(self, relaxed):
        """One rng.random(n) draw == n sequential sample_path draws."""
        flows, relaxation = relaxed
        weights = aggregate_path_weights_array(
            list(flows), self._contributions(relaxation)
        )
        for seed in (0, 7, 42, 1234):
            batched = sample_paths(weights, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            sequential = [
                sample_path(
                    aggregate_path_weights(
                        f, relaxation.fractions_for_flow(f.id)
                    ),
                    rng,
                )
                for f in flows
            ]
            assert batched == sequential

    def test_argmax_matches_dict_reference(self, relaxed):
        flows, relaxation = relaxed
        weights = aggregate_path_weights_array(
            list(flows), self._contributions(relaxation)
        )
        modal = argmax_paths(weights)
        for f, path in zip(flows, modal):
            reference = aggregate_path_weights(
                f, relaxation.fractions_for_flow(f.id)
            )
            assert path == max(sorted(reference), key=lambda p: reference[p])

    def test_flow_subset_aggregation(self, relaxed):
        """Ids outside the rounding set are ignored, not an error."""
        flows, relaxation = relaxed
        subset = list(flows)[:5]
        weights = aggregate_path_weights_array(
            subset, self._contributions(relaxation)
        )
        assert weights.flow_ids == tuple(f.id for f in subset)
        for f in subset:
            reference = aggregate_path_weights(
                f, relaxation.fractions_for_flow(f.id)
            )
            for path, value in reference.items():
                assert weights[f.id][path] == pytest.approx(value, abs=1e-12)

    def test_empty_flows_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_path_weights_array([], [])

    def test_missing_coverage_rejected(self, relaxed):
        flows, relaxation = relaxed
        half = self._contributions(relaxation)
        half = half[: len(half) // 2]
        with pytest.raises(ValidationError, match="cover"):
            aggregate_path_weights_array(list(flows), half)

    def test_mapping_interface(self, relaxed):
        flows, relaxation = relaxed
        weights = aggregate_path_weights_array(
            list(flows), self._contributions(relaxation)
        )
        assert len(weights) == len(flows)
        assert set(weights) == {f.id for f in flows}
        first = next(iter(flows))
        assert first.id in weights
        assert sum(weights[first.id].values()) == pytest.approx(1.0)
        assert weights.max_drift < 1e-9
