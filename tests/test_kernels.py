"""Cross-backend pinning suite for the compiled kernel tier (DESIGN.md §15).

The kernel bodies in :mod:`repro.kernels._impl` are written once in the
numba nopython subset and run either compiled (``compiled`` backend) or
as plain Python (the hidden ``interpreted`` backend).  Same code, same
floating-point operation order — so pinning ``interpreted`` against the
retained Python/numpy engines proves the *compiled* tier bit-identical
too, on machines without numba.  This suite covers:

* the registry: resolution order, env var, explicit override, the
  single :class:`KernelFallbackWarning` when ``compiled`` is requested
  without numba, and identical results on the fallback path;
* the incremental shortest-path tree: ``spt_repair`` after weight
  perturbations equals a cold ``spt_tree`` recompute exactly, and the
  repaired tree stays internally consistent;
* EDF: ``edf_schedule_compiled`` pinned exactly (schedules *and*
  infeasibility messages) to the arrays engine and the scalar
  reference, dyadic Hypothesis sweep plus a float-dust fuzz;
* the pricing kernels ``row_costs`` / ``pairwise_delta`` against local
  numpy replicas of the retained expressions, bit for bit;
* solver level: Frank-Wolfe, the :class:`RelaxationSession` interval
  sweep and the stacked multi-interval relaxation stay certified and
  agree across backends (this exercises ``spt_tree``/``spt_repair``
  through ``_aon_pids`` across warm solves and per-block trees).
"""

from __future__ import annotations

import importlib.util
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_flows_on
from repro import kernels
from repro.core.relaxation import solve_relaxation
from repro.errors import InfeasibleError
from repro.kernels import _impl
from repro.power import PowerModel
from repro.routing import (
    Commodity,
    FrankWolfeSolver,
    RelaxationSession,
    envelope_cost,
)
from repro.scheduling import EdfJob, edf_schedule
from repro.scheduling.edf import (
    edf_schedule_arrays,
    edf_schedule_compiled,
    edf_schedule_reference,
)
from repro.topology import fat_tree
from repro.topology.random_graphs import jellyfish

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

GAP = 1e-4


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend selection clean."""
    yield
    kernels.reset_backend()


def make_topology(kind: str, seed: int):
    if kind == "fat_tree":
        return fat_tree(4)
    return jellyfish(10, 3, hosts_per_switch=2, seed=seed)


def make_commodities(topology, n: int, seed: int):
    rng = np.random.default_rng(seed)
    hosts = topology.hosts
    out = []
    for i in range(n):
        src_i, dst_i = rng.choice(len(hosts), size=2, replace=False)
        out.append(
            Commodity(
                id=i,
                src=hosts[int(src_i)],
                dst=hosts[int(dst_i)],
                demand=float(rng.uniform(0.2, 3.0)),
            )
        )
    return out


def assert_objectives_agree(a, b):
    assert a.lower_bound <= b.objective + 1e-9
    assert b.lower_bound <= a.objective + 1e-9
    rel = 1.5 * (max(a.relative_gap, GAP) + max(b.relative_gap, GAP))
    assert a.objective == pytest.approx(b.objective, rel=rel)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_auto_resolution(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        kernels.reset_backend()
        assert kernels.requested_backend() == "auto"
        expected = "compiled" if HAVE_NUMBA else "python"
        assert kernels.active_backend() == expected
        if not HAVE_NUMBA:
            assert kernels.active() is None
            assert kernels.numba_version() is None

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        kernels.reset_backend()
        assert kernels.active_backend() == "python"
        assert kernels.active() is None
        monkeypatch.setenv(kernels.ENV_VAR, "interpreted")
        kernels.reset_backend()
        assert kernels.active_backend() == "interpreted"
        assert kernels.active() is not None

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        kernels.set_backend("interpreted")
        assert kernels.requested_backend() == "interpreted"
        assert kernels.active_backend() == "interpreted"

    def test_unknown_env_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "turbo")
        kernels.reset_backend()
        with pytest.warns(kernels.KernelFallbackWarning):
            assert kernels.requested_backend() == "auto"

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("turbo")

    def test_kernel_info_shape(self):
        kernels.set_backend("interpreted")
        info = kernels.kernel_info()
        assert set(info) == {"requested", "backend", "numba"}
        assert info["requested"] == "interpreted"
        assert info["backend"] == "interpreted"
        assert info["numba"] is None

    def test_warmup_runs_every_kernel(self):
        kernels.set_backend("interpreted")
        kernels.warmup()  # must not raise on any kernel body

    def test_compiled_fallback_without_numba(self, monkeypatch):
        """``compiled`` without numba: one warning, python tier, identical
        results to an explicit ``python`` selection."""
        monkeypatch.setitem(sys.modules, "numba", None)
        kernels.set_backend("compiled")
        with pytest.warns(kernels.KernelFallbackWarning) as caught:
            assert kernels.active_backend() == "python"
        assert len(caught) == 1
        assert kernels.active() is None
        assert kernels.numba_version() is None
        assert kernels.kernel_info()["backend"] == "python"
        # The resolution is cached: no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.active_backend() == "python"
        jobs = [
            EdfJob(f"j{i}", i % 7, 40.0 + i, 0.5) for i in range(60)
        ]
        fallback_schedule = edf_schedule(jobs)
        kernels.set_backend("python")
        assert edf_schedule(jobs) == fallback_schedule


# ----------------------------------------------------------------------
# Incremental shortest-path tree
# ----------------------------------------------------------------------
class TestShortestPathTreeRepair:
    def test_repair_equals_cold_recompute(self):
        """Rounds of weight perturbation (sparse and full): the repaired
        tree equals a cold Dijkstra bit for bit — distances *and*
        canonicalized parents — and the (dist, pred, parc) triple stays
        internally consistent."""
        topology = jellyfish(12, 3, hosts_per_switch=2, seed=5)
        indptr, indices, edge_ids = topology.csr_adjacency
        n = indptr.size - 1
        cap = 2 * indices.size + 4
        heap_key = np.empty(cap)
        heap_node = np.empty(cap, dtype=np.int64)
        dist = np.empty(n)
        pred = np.empty(n, dtype=np.int64)
        parc = np.empty(n, dtype=np.int64)
        child_head = np.empty(n, dtype=np.int64)
        child_next = np.empty(n, dtype=np.int64)
        stack = np.empty(n, dtype=np.int64)
        rng = np.random.default_rng(17)
        w = rng.uniform(0.1, 2.0, topology.num_edges)
        for src in (0, n // 2):
            _impl.spt_tree(
                indptr, indices, w[edge_ids], src,
                dist, pred, parc, heap_key, heap_node,
            )
            for round_ in range(6):
                if round_ % 2:
                    # Full reshuffle: the repair cone is the whole graph.
                    w = rng.uniform(0.1, 2.0, w.size)
                else:
                    # Sparse perturbation: a few edges move, most of the
                    # tree must survive untouched.
                    w = w.copy()
                    idx = rng.integers(0, w.size, 3)
                    w[idx] = rng.uniform(0.1, 2.0, idx.size)
                warc = w[edge_ids]
                _impl.spt_repair(
                    indptr, indices, warc, src, dist, pred, parc,
                    heap_key, heap_node, child_head, child_next, stack,
                )
                cold_dist = np.empty(n)
                cold_pred = np.empty(n, dtype=np.int64)
                cold_parc = np.empty(n, dtype=np.int64)
                _impl.spt_tree(
                    indptr, indices, warc, src, cold_dist, cold_pred,
                    cold_parc, heap_key, heap_node,
                )
                assert np.array_equal(dist, cold_dist)
                assert np.array_equal(pred, cold_pred)
                assert np.array_equal(parc, cold_parc)
                assert np.all(np.isfinite(dist))
                assert dist[src] == 0.0 and pred[src] == -1
                for v in range(n):
                    if v == src:
                        continue
                    u = pred[v]
                    assert u >= 0
                    arc = parc[v]
                    assert indptr[u] <= arc < indptr[u + 1]
                    assert indices[arc] == v
                    assert dist[v] == dist[u] + warc[arc]


# ----------------------------------------------------------------------
# EDF compiled engine
# ----------------------------------------------------------------------
#: Dyadic rationals: exact in float64, so every engine's arithmetic is
#: exact and outputs must match bit for bit (mirrors tests/test_edf.py).
_dyadic = st.integers(0, 160).map(lambda k: k / 8.0)
_dyadic_pos = st.integers(1, 40).map(lambda k: k / 8.0)

def _run_edf(fn, jobs, blocked):
    try:
        return ("ok", fn(jobs, blocked))
    except InfeasibleError as exc:
        return ("infeasible", str(exc))


class TestEdfCompiledEngine:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_engines_agree_exactly(self, data):
        n = data.draw(st.integers(1, 12))
        jobs = []
        for i in range(n):
            release = data.draw(_dyadic)
            duration = data.draw(_dyadic_pos)
            slack = data.draw(_dyadic)
            jobs.append(
                EdfJob(f"j{i}", release, release + duration + slack,
                       duration)
            )
        blocked = []
        for _ in range(data.draw(st.integers(0, 3))):
            start = data.draw(_dyadic)
            blocked.append((start, start + data.draw(_dyadic_pos)))
        # Compiled == arrays everywhere, including the exact
        # infeasibility message (they share transform and wording).
        want = _run_edf(edf_schedule_arrays, jobs, blocked)
        assert _run_edf(edf_schedule_compiled, jobs, blocked) == want
        # Versus the scalar reference: exact schedules when feasible,
        # agreement on the verdict when not (the engines word their
        # certificates differently — same contract as test_edf.py).
        try:
            reference = edf_schedule_reference(jobs, blocked)
        except InfeasibleError:
            assert want[0] == "infeasible"
        else:
            assert want == ("ok", reference)

    def test_float_dust_fuzz(self):
        """Non-dyadic floats: run-splitting dust, deadline-tolerance
        edges and infeasibility messages must match the arrays engine
        exactly (the reference works in real time and can differ from
        the available-coordinate engines in the last ulp here)."""
        rng = np.random.default_rng(23)
        infeasible_seen = 0
        for trial in range(60):
            n = int(rng.integers(1, 40))
            jobs = []
            for i in range(n):
                release = float(rng.uniform(0, 15))
                duration = float(rng.uniform(0.05, 2.5))
                slack = float(rng.uniform(0, 6))
                jobs.append(
                    EdfJob(f"j{i}", release,
                           release + duration + slack, duration)
                )
            blocked = [
                (s, s + float(rng.uniform(0.1, 2.0)))
                for s in rng.uniform(0, 15, int(rng.integers(0, 4)))
            ]
            want = _run_edf(edf_schedule_arrays, jobs, blocked)
            assert _run_edf(edf_schedule_compiled, jobs, blocked) == want
            infeasible_seen += want[0] == "infeasible"
        assert 0 < infeasible_seen < 60  # both outcomes exercised

    def test_infeasibility_message_identical(self):
        # 50 jobs x 1.25 work into a 50-long window: certified miss.
        jobs = [EdfJob(f"j{i}", 0.0, 50.0, 1.25) for i in range(50)]
        with pytest.raises(InfeasibleError) as arrays_exc:
            edf_schedule_arrays(jobs)
        with pytest.raises(InfeasibleError) as compiled_exc:
            edf_schedule_compiled(jobs)
        assert str(compiled_exc.value) == str(arrays_exc.value)
        with pytest.raises(InfeasibleError):
            edf_schedule_reference(jobs)

    def test_dispatcher_uses_kernel_backend(self):
        jobs = [
            EdfJob(f"j{i}", float(i % 9), 70.0 + i, 0.75)
            for i in range(64)
        ]
        kernels.set_backend("python")
        want = edf_schedule(jobs)
        assert want == edf_schedule_arrays(jobs)
        kernels.set_backend("interpreted")
        assert edf_schedule(jobs) == want


# ----------------------------------------------------------------------
# Pricing kernels
# ----------------------------------------------------------------------
def _sequential_row_costs(eids, starts, lens, weights):
    """Left-to-right per-row sums — the kernel's accumulation order."""
    out = np.empty(starts.size)
    for r in range(starts.size):
        c = 0.0
        for j in range(int(lens[r])):
            c += weights[eids[int(starts[r]) + j]]
        out[r] = c
    return out


class TestPricingKernels:
    def _random_rows(self, rng, num_edges, k, n):
        lens = rng.integers(1, 6, n)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        eids = rng.integers(0, num_edges, int(lens.sum()))
        owner = rng.integers(0, k, n)
        flow = rng.uniform(0.0, 3.0, n)
        flow[rng.random(n) < 0.3] = 0.0
        return eids, lens, starts, owner, flow

    def test_row_costs_matches_sequential_sums(self):
        """Exact against a left-to-right replica; ulp-close to reduceat
        (whose blocked accumulation order is numpy's business)."""
        rng = np.random.default_rng(31)
        kn = kernels.interpreted()
        for _ in range(20):
            num_edges = int(rng.integers(4, 30))
            n = int(rng.integers(1, 25))
            eids, lens, starts, _, _ = self._random_rows(
                rng, num_edges, 3, n
            )
            weights = rng.uniform(0.01, 5.0, num_edges)
            out = np.empty(n)
            kn.row_costs(eids, starts, lens, weights, out)
            want = _sequential_row_costs(eids, starts, lens, weights)
            assert np.array_equal(out, want)
            reduceat = np.add.reduceat(weights[eids], starts)
            np.testing.assert_allclose(out, reduceat, rtol=1e-13)

    @pytest.mark.parametrize("cap_at_demand", [False, True])
    def test_pairwise_delta_matches_numpy_replica(self, cap_at_demand):
        """The fused kernel reproduces the numpy expressions of
        ``FrankWolfeSolver._pairwise_direction`` bit for bit when the row
        costs are summed sequentially (reduceat's blocked order is the
        only divergence, checked separately in the row_costs test)."""
        rng = np.random.default_rng(37 + cap_at_demand)
        kn = kernels.interpreted()
        moved_seen = stalled_seen = False
        for trial in range(40):
            num_edges = int(rng.integers(4, 25))
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 20))
            eids, lens, starts, owner, flow = self._random_rows(
                rng, num_edges, k, n
            )
            if trial % 5 == 0:
                flow[:] = 0.0  # nothing can drain: the stall branch
            weights = rng.uniform(0.05, 4.0, num_edges)
            inv_h = rng.uniform(0.01, 10.0, n)
            demands = rng.uniform(0.2, 3.0, k)
            delta = np.empty(n)
            direction = np.empty(num_edges)
            moved = kn.pairwise_delta(
                eids, lens, starts, owner, flow.copy(), weights, inv_h,
                demands, cap_at_demand, delta, direction,
            )
            want_delta, want_direction, want_moved = (
                self._pairwise_replica(
                    eids, lens, starts, owner, flow, weights, inv_h,
                    demands, cap_at_demand, num_edges,
                )
            )
            assert bool(moved) == want_moved
            assert np.array_equal(delta, want_delta)
            if want_moved:
                assert np.array_equal(direction, want_direction)
                moved_seen = True
            else:
                stalled_seen = True
        assert moved_seen and stalled_seen

    @staticmethod
    def _pairwise_replica(eids, lens, starts, owner, flow, weights,
                          inv_h, demands, cap_at_demand, num_edges):
        # The numpy branch of _pairwise_direction with the one
        # substitution of sequential row sums for reduceat (see module
        # docstring of repro.kernels._impl for why).
        k = demands.size
        costs = _sequential_row_costs(eids, starts, lens, weights)
        lam_den = np.bincount(owner, weights=inv_h, minlength=k)
        lam = np.bincount(owner, weights=costs * inv_h, minlength=k)
        lam /= np.maximum(lam_den, 1e-30)
        delta = np.maximum((lam[owner] - costs) * inv_h, -flow)
        if cap_at_demand:
            delta = np.minimum(delta, demands[owner])
        negative = np.minimum(delta, 0.0)
        positive = delta - negative
        pos_sum = np.bincount(owner, weights=positive, minlength=k)
        neg_sum = np.bincount(owner, weights=-negative, minlength=k)
        can_move = pos_sum > 0.0
        factor = np.where(
            can_move, neg_sum / np.maximum(pos_sum, 1e-30), 0.0
        )
        delta = np.where(
            can_move[owner], negative + positive * factor[owner], 0.0
        )
        direction = np.bincount(
            eids, weights=np.repeat(delta, lens), minlength=num_edges
        )
        return delta, direction, bool(np.any(delta))


# ----------------------------------------------------------------------
# Solver level
# ----------------------------------------------------------------------
class TestSolverAcrossBackends:
    @pytest.mark.parametrize("kind", ["fat_tree", "jellyfish"])
    def test_solve_certified_python_vs_kernel(self, kind):
        topology = make_topology(kind, seed=21)
        commodities = make_commodities(topology, 8, seed=22)
        cost = envelope_cost(PowerModel.quadratic())
        kernels.set_backend("python")
        a = FrankWolfeSolver(
            topology, cost, max_iterations=500, gap_tolerance=GAP
        ).solve(commodities)
        kernels.set_backend("interpreted")
        b = FrankWolfeSolver(
            topology, cost, max_iterations=500, gap_tolerance=GAP
        ).solve(commodities)
        assert_objectives_agree(a, b)

    def test_quartic_envelope_across_backends(self):
        """Degree-4 power: the envelope's zero-curvature segments drive
        the demand-capped Newton branch of the pairwise kernel."""
        topology = fat_tree(4)
        commodities = make_commodities(topology, 6, seed=41)
        cost = envelope_cost(PowerModel.quartic())
        kernels.set_backend("python")
        a = FrankWolfeSolver(
            topology, cost, max_iterations=500, gap_tolerance=GAP
        ).solve(commodities)
        kernels.set_backend("interpreted")
        b = FrankWolfeSolver(
            topology, cost, max_iterations=500, gap_tolerance=GAP
        ).solve(commodities)
        assert_objectives_agree(a, b)

    def test_session_sweep_kernel_matches_python_cold(self):
        """A warm session under the kernel backend — consecutive solves
        re-root the cached shortest-path trees via ``spt_repair`` — must
        stay certified and agree with cold python-backend solves."""
        topology = fat_tree(4)
        cost = envelope_cost(PowerModel.quadratic())
        commodities = make_commodities(topology, 10, seed=5)
        rng = np.random.default_rng(13)
        kernels.set_backend("interpreted")
        solver = FrankWolfeSolver(
            topology, cost, max_iterations=500, gap_tolerance=GAP
        )
        session = RelaxationSession(solver)
        warm_runs = []
        for step in range(4):
            background = rng.uniform(0.0, 4.0, topology.num_edges)
            subset = commodities[: 6 + (step % 4)]
            warm = session.solve(subset, background=background)
            assert warm.relative_gap <= 5 * GAP
            warm_runs.append((subset, background, warm))
        assert solver._spt_cache  # the incremental trees actually engaged
        kernels.set_backend("python")
        for subset, background, warm in warm_runs:
            cold = FrankWolfeSolver(
                topology, cost, max_iterations=500, gap_tolerance=GAP
            ).solve(subset, background=background)
            assert_objectives_agree(warm, cold)

    def test_stacked_relaxation_kernel_matches_python(self):
        """A multi-interval stacked solve: under the kernel backend every
        (block, source) pair keeps its own shortest-path tree — blocks
        carry unrelated weights, so a tree shared by raw source id would
        be re-rooted across blocks — and both backends certify the
        window and agree interval by interval."""
        topology = fat_tree(4)
        cost = envelope_cost(PowerModel.quadratic())
        flows = random_flows_on(topology, 8, seed=3)
        background = np.random.default_rng(4).uniform(
            0.0, 2.0, topology.num_edges
        )
        results = {}
        for backend in ("python", "interpreted"):
            kernels.set_backend(backend)
            solver = FrankWolfeSolver(
                topology, cost, max_iterations=500, gap_tolerance=GAP
            )
            result = solve_relaxation(flows, solver, background=background)
            assert result.lower_bound <= result.objective
            gap = (result.objective - result.lower_bound) / result.objective
            assert gap <= GAP * (1 + 1e-9)
            results[backend] = result
        assert len(results["python"].intervals) > 3
        blocks = {block for block, _src in solver._spt_cache}
        sources = {src for _block, src in solver._spt_cache}
        assert len(blocks) > 1
        assert len(solver._spt_cache) > len(sources)
        for a, b in zip(
            results["python"].intervals, results["interpreted"].intervals
        ):
            assert_objectives_agree(a.solution, b.solution)
