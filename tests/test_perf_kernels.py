"""Pinning suites for the vectorized offline kernels (DESIGN.md Section 8).

Every fast path introduced by the array-native offline core keeps its
pure-Python predecessor as a ``*_reference`` sibling; these tests prove
the pairs interchangeable:

* ``critical_interval`` (grid + list enumeration) vs the brute-force
  enumeration ``critical_interval_reference``, including infeasibility
  behavior, on Hypothesis-generated job sets with random blocked time,
  and ``critical_interval_batch`` vs the reference link by link on
  Hypothesis-generated batches of links;
* the ``np.add.at`` compile of ``PiecewiseConstant`` vs a per-slot
  Python reference, and ``integrate_power`` vs
  ``integrate(dynamic_power)``;
* incremental ``solve_dcfs`` vs ``solve_dcfs_reference`` (identical
  rates, rounds, segments, energy), on small fat_tree(4) instances, on
  windows shaped like the replay benchmark's, and at absolute times past
  2^15 s;
* event-diff ``simulate_fluid`` vs ``simulate_fluid_reference`` and the
  analytical ``Schedule.energy``;
* the fork-pool experiment harness vs its serial counterpart.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import dyadic_ft4_flows, random_flows_on
from tests.oracles.dcfs import (
    critical_interval_reference,
    solve_dcfs_reference,
)
from tests.oracles.fluid import simulate_fluid_reference
from repro.core import solve_dcfs, solve_dcfsr, sp_mcf
from repro.errors import InfeasibleError, ValidationError
from repro.experiments.figure2 import run_figure2
from repro.experiments.parallel import parallel_map
from repro.flows import Flow, FlowSet
from repro.power import PowerModel
from repro.scheduling import (
    PiecewiseConstant,
    YdsJob,
    contained_indices,
    critical_interval,
    critical_interval_batch,
)
from repro.scheduling.timeline import BlockedTimeline
from repro.sim.fluid import simulate_fluid
from repro.topology import fat_tree
from repro.traces import PoissonProcess, TraceSpec, generate_trace

#: A shift of 2^15 s: past 2^14 s, ``b + 1e-12 == b`` in float64.
FAR = 2.0**15


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------
@st.composite
def job_sets(draw, max_jobs: int = 18):
    n = draw(st.integers(1, max_jobs))
    jobs = []
    for i in range(n):
        r = draw(st.floats(0, 10, allow_nan=False, allow_infinity=False))
        length = draw(st.floats(0.3, 5, allow_nan=False))
        w = draw(st.floats(0.1, 10, allow_nan=False))
        jobs.append(YdsJob(i, r, r + length, w))
    return jobs


@st.composite
def blocked_timelines(draw):
    segments = draw(
        st.lists(
            st.tuples(
                st.floats(0, 11, allow_nan=False), st.floats(0.05, 3.0)
            ).map(lambda p: (p[0], p[0] + p[1])),
            max_size=6,
        )
    )
    if segments is None or not segments:
        return None
    timeline = BlockedTimeline()
    timeline.add_many(segments)
    return timeline


def _outcome(fn, *args):
    """(result, exception-string) pair for exact comparison."""
    try:
        return fn(*args), None
    except InfeasibleError as exc:
        return None, str(exc)


@contextmanager
def _kernel_tuning(work_cutoff=None, chunk_cells=None, pad_limit=None):
    """Temporarily retune the vectorized kernel's dispatch thresholds.

    ``work_cutoff=0`` sends every batch of links (and every single job
    set) to the batched NumPy grid; a huge one sends every link to the
    list enumeration.
    """
    import repro.scheduling.yds as yds_module

    names = ("_BATCH_WORK_CUTOFF", "_GRID_CHUNK_CELLS", "_PAD_LIMIT")
    saved = [getattr(yds_module, name) for name in names]
    try:
        for name, value in zip(names, (work_cutoff, chunk_cells, pad_limit)):
            if value is not None:
                setattr(yds_module, name, value)
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(yds_module, name, value)


# ----------------------------------------------------------------------
# critical_interval: vectorized grid vs brute-force reference.
# ----------------------------------------------------------------------
class TestCriticalIntervalPinning:
    @settings(max_examples=60, deadline=None)
    @given(job_sets(), blocked_timelines())
    def test_matches_reference_exactly(self, jobs, blocked):
        ref, ref_exc = _outcome(critical_interval_reference, jobs, blocked)
        fast, fast_exc = _outcome(critical_interval, jobs, blocked)
        assert ref_exc == fast_exc
        if ref is None:
            return
        assert ref[:3] == fast[:3]
        assert [j.id for j in ref[3]] == [j.id for j in fast[3]]

    @settings(max_examples=40, deadline=None)
    @given(job_sets(max_jobs=8), blocked_timelines())
    def test_grid_path_matches_on_small_inputs(self, jobs, blocked):
        """Force the 2D grid kernel (bypassing the work cutoff)."""
        with _kernel_tuning(work_cutoff=0):
            ref, ref_exc = _outcome(critical_interval_reference, jobs, blocked)
            fast, fast_exc = _outcome(critical_interval, jobs, blocked)
        assert ref_exc == fast_exc
        if ref is not None:
            assert ref[:3] == fast[:3]
            assert [j.id for j in ref[3]] == [j.id for j in fast[3]]

    @settings(max_examples=25, deadline=None)
    @given(job_sets(max_jobs=10), blocked_timelines())
    def test_chunked_grid_matches(self, jobs, blocked):
        """Tiny chunk budget exercises the cross-chunk tie-breaking."""
        with _kernel_tuning(work_cutoff=0, chunk_cells=4):
            ref, ref_exc = _outcome(critical_interval_reference, jobs, blocked)
            fast, fast_exc = _outcome(critical_interval, jobs, blocked)
        assert ref_exc == fast_exc
        if ref is not None:
            assert ref[:3] == fast[:3]
            assert [j.id for j in ref[3]] == [j.id for j in fast[3]]

    @settings(max_examples=40, deadline=None)
    @given(job_sets(max_jobs=10), blocked_timelines(), st.sampled_from([0, 10**9]))
    def test_matches_reference_far_from_origin(self, jobs, blocked, cutoff):
        """Grid and list paths both count a deadline equal to ``b``."""
        jobs = [
            YdsJob(j.id, j.release + FAR, j.deadline + FAR, j.work)
            for j in jobs
        ]
        if blocked is not None:
            shifted = BlockedTimeline()
            shifted.add_many([(s + FAR, e + FAR) for s, e in blocked.segments()])
            blocked = shifted
        with _kernel_tuning(work_cutoff=cutoff):
            ref, ref_exc = _outcome(critical_interval_reference, jobs, blocked)
            fast, fast_exc = _outcome(critical_interval, jobs, blocked)
        assert ref_exc == fast_exc
        if ref is not None:
            assert ref[:3] == fast[:3]
            assert [j.id for j in ref[3]] == [j.id for j in fast[3]]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            critical_interval([])


# ----------------------------------------------------------------------
# critical_interval_batch: many links in one pass vs the reference.
# ----------------------------------------------------------------------
@st.composite
def link_batches(draw):
    """A batch of ``(jobs, timeline)`` links for the batched scorer.

    Each link draws either dyadic jobs, whose intensities tie often
    (float64 holds every sum exactly), or arbitrary ones.  Its timeline
    is None, empty, its own, or shared with another link of the batch;
    segments may cover a job's whole span, so the link must fall back to
    overlap mode.  The whole batch may sit 2^15 s from the origin.
    """
    shift = draw(st.sampled_from([0.0, FAR]))
    shared = None
    links = []
    for _ in range(draw(st.integers(1, 6))):
        dyadic = draw(st.booleans())
        jobs = []
        for i in range(draw(st.integers(1, 12))):
            if dyadic:
                r = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]))
                length = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
                w = draw(st.sampled_from([0.5, 1.0, 2.0]))
            else:
                r = draw(st.floats(0, 10, allow_nan=False))
                length = draw(st.floats(0.3, 5, allow_nan=False))
                w = draw(st.floats(0.1, 10, allow_nan=False))
            jobs.append(YdsJob(i, r + shift, r + length + shift, w))
        kind = draw(st.sampled_from(["none", "empty", "own", "shared"]))
        if kind == "none":
            timeline = None
        elif kind == "empty":
            timeline = BlockedTimeline()
        elif kind == "shared" and shared is not None:
            timeline = shared
        else:
            segments = draw(
                st.lists(
                    st.one_of(
                        st.tuples(
                            st.floats(0, 11, allow_nan=False),
                            st.floats(0.05, 3.0),
                        ).map(lambda p: (p[0] + shift, p[0] + p[1] + shift)),
                        st.sampled_from(jobs).map(lambda j: (j.release, j.deadline)),
                    ),
                    max_size=6,
                )
            )
            timeline = BlockedTimeline()
            timeline.add_many(segments)
            if kind == "shared":
                shared = timeline
        links.append((jobs, timeline))
    return links


def _columns(jobs, timeline):
    return (
        [j.release for j in jobs],
        [j.deadline for j in jobs],
        [j.work for j in jobs],
        timeline,
    )


class TestBatchPinning:
    @settings(max_examples=80, deadline=None)
    @given(
        link_batches(),
        st.sampled_from([0, 10**9, None]),
        st.sampled_from([0, 10**9, None]),
        st.sampled_from([4, None]),
    )
    def test_batch_matches_reference_link_by_link(
        self, links, work_cutoff, pad_limit, chunk_cells
    ):
        """Each link's score equals the reference's, whichever scorer the
        batch takes (lists, one grid pass, heavy links alone, tiny row
        chunks), and a link the reference finds exhausted reads None and
        scores in overlap mode as the reference does without blocks."""
        columns = [_columns(jobs, timeline) for jobs, timeline in links]
        with _kernel_tuning(
            work_cutoff=work_cutoff, pad_limit=pad_limit, chunk_cells=chunk_cells
        ):
            scores = critical_interval_batch(columns)
            overlap = critical_interval_batch(
                [(r, d, w, None) for r, d, w, _ in columns]
            )
        assert len(scores) == len(links)
        for (jobs, timeline), column, score, raw in zip(
            links, columns, scores, overlap
        ):
            ref, _ = _outcome(critical_interval_reference, jobs, timeline)
            if ref is None:
                assert score is None
                score = raw
                ref, _ = _outcome(critical_interval_reference, jobs, None)
            a, b, intensity, count = score
            assert (a, b, intensity) == ref[:3]
            assert contained_indices(column[0], column[1], a, count) == [
                j.id for j in ref[3]
            ]

    @pytest.mark.parametrize("cutoff", [0, 10**9], ids=["grid", "lists"])
    def test_ties_shared_timeline_and_overlap_mode(self, cutoff):
        """Two links with equal jobs on one shared timeline tie exactly;
        a third, whose timeline covers a job's span, reads None."""
        shared = BlockedTimeline()
        shared.add_many([(0.5, 1.0)])
        covered = BlockedTimeline()
        covered.add_many([(2.0, 3.0)])
        jobs = [YdsJob(0, 0.0, 1.0, 1.0), YdsJob(1, 0.0, 2.0, 1.0)]
        late = [YdsJob(0, 2.0, 3.0, 1.0), YdsJob(1, 0.0, 4.0, 1.0)]
        links = [(jobs, shared), (jobs, shared), (late, covered)]
        with _kernel_tuning(work_cutoff=cutoff):
            scores = critical_interval_batch(
                [_columns(j, t) for j, t in links]
            )
        ref = critical_interval_reference(jobs, shared)
        assert ref[:3] == (0.0, 1.0, 2.0)
        assert scores[0] == scores[1] == (*ref[:3], 1)
        assert scores[2] is None

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValidationError):
            critical_interval_batch([([0.0], [1.0, 2.0], [1.0, 1.0], None)])


# ----------------------------------------------------------------------
# PiecewiseConstant: vectorized compile and power integral.
# ----------------------------------------------------------------------
def _compile_reference(pending):
    """The historical per-slot Python compile."""
    import itertools

    points = sorted(
        set(itertools.chain.from_iterable((s, e) for s, e, _ in pending))
    )
    values = [0.0] * max(0, len(points) - 1)
    index = {p: i for i, p in enumerate(points)}
    for start, end, value in pending:
        for i in range(index[start], index[end]):
            values[i] += value
    return points, values


segments_strategy = st.lists(
    st.tuples(
        st.floats(0, 10, allow_nan=False),
        st.floats(0.1, 5, allow_nan=False),
        st.floats(0.1, 4, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)


class TestPiecewiseConstantVectorized:
    @settings(max_examples=60, deadline=None)
    @given(segments_strategy)
    def test_compile_matches_per_slot_reference(self, raw):
        pc = PiecewiseConstant()
        pending = []
        for start, length, value in raw:
            pc.add(start, start + length, value)
            pending.append((start, start + length, value))
        ref_points, ref_values = _compile_reference(pending)
        assert list(pc.breakpoints) == ref_points
        got_values = [v for _, _, v in pc.pieces()]
        assert got_values == ref_values

    @settings(max_examples=40, deadline=None)
    @given(segments_strategy, st.sampled_from([2.0, 3.0, 4.0]))
    def test_integrate_power_matches_callback(self, raw, alpha):
        power = PowerModel(sigma=0.0, mu=1.5, alpha=alpha)
        pc = PiecewiseConstant()
        for start, length, value in raw:
            pc.add(start, start + length, value)
        fast = pc.integrate_power(power.alpha, power.mu)
        slow = sum(
            power.dynamic_power(v) * (b - a) for a, b, v in pc.pieces()
        )
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)


# ----------------------------------------------------------------------
# Incremental Most-Critical-First vs the reference.
# ----------------------------------------------------------------------
def _assert_identical(fast, ref):
    assert fast.rounds == ref.rounds
    assert fast.rates == ref.rates
    for fid in ref.rates:
        assert fast.schedule[fid].segments == ref.schedule[fid].segments


def _routed(flows, topology):
    return {f.id: topology.shortest_path(f.src, f.dst) for f in flows}


@pytest.fixture(scope="module", params=[1, 2, 3], ids=lambda s: f"seed{s}")
def epoch_window(request):
    """One window shaped like the replay benchmark's Epoch-DCFS workload:
    the first 100 flows (~0.5 s) of a 200/s Poisson trace on fat_tree(8)
    with default sizes and slack, on shortest paths, plus its reference
    solve."""
    topology = fat_tree(8)
    power = PowerModel.quadratic()
    spec = TraceSpec(
        arrivals=PoissonProcess(200.0), duration=1.0, seed=request.param
    )
    flows = FlowSet(islice(generate_trace(topology, spec), 100))
    paths = _routed(flows, topology)
    ref = solve_dcfs_reference(flows, topology, paths, power)
    return flows, topology, paths, power, ref


class TestSolveDcfsPinning:
    @pytest.mark.parametrize("cutoff", [0, 10**9], ids=["grid", "lists"])
    def test_identical_on_replay_shaped_windows(self, epoch_window, cutoff):
        """Every round's links scored in one batched NumPy grid pass,
        then every link by the list enumeration: both reproduce the
        reference bit for bit."""
        flows, topology, paths, power, ref = epoch_window
        assert len(flows) == 100
        with _kernel_tuning(work_cutoff=cutoff):
            fast = solve_dcfs(flows, topology, paths, power)
        _assert_identical(fast, ref)

    @pytest.mark.parametrize("cutoff", [0, 10**9], ids=["grid", "lists"])
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_far_from_origin(self, ft4, quadratic, seed, cutoff):
        flows = FlowSet(
            replace(f, release=f.release + FAR, deadline=f.deadline + FAR)
            for f in random_flows_on(ft4, 12, seed=seed)
        )
        paths = _routed(flows, ft4)
        ref = solve_dcfs_reference(flows, ft4, paths, quadratic)
        with _kernel_tuning(work_cutoff=cutoff):
            fast = solve_dcfs(flows, ft4, paths, quadratic)
        _assert_identical(fast, ref)

    def test_dyadic_instance_far_from_origin(self, ft4, quadratic):
        """Exact arithmetic: the shifted rates equal the unshifted ones."""
        near = FlowSet(dyadic_ft4_flows())
        far = FlowSet(dyadic_ft4_flows(FAR))
        paths = _routed(near, ft4)
        expected = {0: 1.0, 1: 0.5, 2: 0.5}
        assert solve_dcfs(near, ft4, paths, quadratic).rates == expected
        fast = solve_dcfs(far, ft4, paths, quadratic)
        assert fast.rates == expected
        _assert_identical(
            fast, solve_dcfs_reference(far, ft4, paths, quadratic)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_identical_on_fat_tree(self, ft4, quadratic, seed):
        flows = random_flows_on(ft4, 12, seed=seed)
        paths = {f.id: ft4.shortest_path(f.src, f.dst) for f in flows}
        ref = solve_dcfs_reference(flows, ft4, paths, quadratic)
        fast = solve_dcfs(flows, ft4, paths, quadratic)
        assert fast.rounds == ref.rounds
        assert fast.rates == ref.rates
        for fid in ref.rates:
            assert fast.schedule[fid].segments == ref.schedule[fid].segments
        ref_energy = ref.schedule.energy(quadratic).total
        fast_energy = fast.schedule.energy(quadratic).total
        assert fast_energy == pytest.approx(ref_energy, rel=1e-9)

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_identical_under_quartic_and_sharing(self, ft4, alpha):
        """Shared-path congestion exercises the overlap-mode fallback."""
        power = PowerModel(sigma=0.0, mu=1.0, alpha=alpha)
        flows = random_flows_on(ft4, 20, seed=11, horizon=(0.0, 8.0))
        paths = {f.id: ft4.shortest_path(f.src, f.dst) for f in flows}
        ref = solve_dcfs_reference(flows, ft4, paths, power)
        fast = solve_dcfs(flows, ft4, paths, power)
        assert fast.rounds == ref.rounds
        assert fast.rates == ref.rates
        for fid in ref.rates:
            assert fast.schedule[fid].segments == ref.schedule[fid].segments

    def test_identical_on_line_instance(self, line3, example1_flows, quadratic):
        paths = {1: ("n0", "n1", "n2"), 2: ("n0", "n1")}
        ref = solve_dcfs_reference(example1_flows, line3, paths, quadratic)
        fast = solve_dcfs(example1_flows, line3, paths, quadratic)
        assert fast.rates == ref.rates
        assert fast.rounds == ref.rounds

    @pytest.mark.parametrize("first", [1, "1"], ids=["int-first", "str-first"])
    def test_ids_sharing_a_str_keep_flowset_order(self, line3, quadratic, first):
        """Ids ``1`` and ``"1"`` tie on ``str``: both engines break the
        tie by FlowSet position, so swapping them swaps their slots."""
        second = "1" if first == 1 else 1
        spans = [
            (first, 1.0, 0.0, 2.0),
            (second, 3.0, 0.0, 2.0),
            (2, 0.7, 0.5, 1.5),
        ]
        flows = FlowSet(
            Flow(id=fid, src="n0", dst="n2", size=w, release=r, deadline=d)
            for fid, w, r, d in spans
        )
        paths = _routed(flows, line3)
        ref = solve_dcfs_reference(flows, line3, paths, quadratic)
        fast = solve_dcfs(flows, line3, paths, quadratic)
        _assert_identical(fast, ref)
        assert fast.schedule[first].segments[0].start == 0.0


# ----------------------------------------------------------------------
# Event-diff fluid replay vs the global-epoch reference.
# ----------------------------------------------------------------------
class TestFluidPinning:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rs_schedules(self, ft4, quadratic, seed):
        flows = random_flows_on(ft4, 10, seed=seed)
        rs = solve_dcfsr(flows, ft4, quadratic, seed=seed)
        self._assert_reports_match(rs.schedule, flows, ft4, quadratic)

    def test_mcf_schedule_with_idle_power_and_capacity(self, ft4):
        power = PowerModel(sigma=1.0, mu=1.0, alpha=4.0, capacity=4.0)
        flows = random_flows_on(ft4, 10, seed=3)
        sp = sp_mcf(flows, ft4, power)
        self._assert_reports_match(sp.schedule, flows, ft4, power)

    def test_truncated_horizon(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=5)
        sp = sp_mcf(flows, ft4, quadratic)
        self._assert_reports_match(
            sp.schedule, flows, ft4, quadratic, horizon=(2.0, 12.0)
        )

    def test_agrees_with_analytic_energy(self, ft4, quadratic):
        flows = random_flows_on(ft4, 10, seed=9)
        sp = sp_mcf(flows, ft4, quadratic)
        report = simulate_fluid(sp.schedule, flows, ft4, quadratic)
        analytic = sp.schedule.energy(quadratic, horizon=flows.horizon)
        assert report.total_energy == pytest.approx(analytic.total, rel=1e-9)

    @staticmethod
    def _assert_reports_match(schedule, flows, topology, power, horizon=None):
        ref = simulate_fluid_reference(
            schedule, flows, topology, power, horizon=horizon
        )
        fast = simulate_fluid(
            schedule, flows, topology, power, horizon=horizon
        )
        assert fast.total_energy == pytest.approx(ref.total_energy, rel=1e-9)
        assert fast.idle_energy == pytest.approx(ref.idle_energy, rel=1e-9)
        assert fast.epochs == ref.epochs
        assert fast.active_links == ref.active_links
        assert fast.deadlines_met == ref.deadlines_met
        assert dict(fast.completion_times) == dict(ref.completion_times)
        assert set(fast.link_stats) == set(ref.link_stats)
        for edge, ref_stats in ref.link_stats.items():
            got = fast.link_stats[edge]
            assert got.peak_rate == pytest.approx(ref_stats.peak_rate, rel=1e-12)
            assert got.busy_time == pytest.approx(
                ref_stats.busy_time, rel=1e-9, abs=1e-12
            )
            assert got.volume_carried == pytest.approx(
                ref_stats.volume_carried, rel=1e-9
            )
            assert got.dynamic_energy == pytest.approx(
                ref_stats.dynamic_energy, rel=1e-9, abs=1e-15
            )
        assert bool(fast.capacity_violations) == bool(ref.capacity_violations)


# ----------------------------------------------------------------------
# Schedule.link_rates caching.
# ----------------------------------------------------------------------
class TestLinkRatesCache:
    def test_profiles_computed_once(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=2)
        sp = sp_mcf(flows, ft4, quadratic)
        schedule = sp.schedule
        first = schedule.link_rates()
        assert schedule.link_rates() is first
        # Consumers that used to rebuild the profiles all agree.
        energy_a = schedule.energy(quadratic).total
        schedule.verify(flows, ft4, quadratic)
        schedule.max_link_rate()
        energy_b = schedule.energy(quadratic).total
        assert energy_a == energy_b


# ----------------------------------------------------------------------
# Process-parallel harness.
# ----------------------------------------------------------------------
class TestParallelHarness:
    def test_parallel_map_order_and_results(self):
        items = list(range(17))
        assert parallel_map(lambda x: x * x, items, jobs=1) == [
            x * x for x in items
        ]
        assert parallel_map(lambda x: x * x, items, jobs=3) == [
            x * x for x in items
        ]

    def test_parallel_map_closure_capture(self):
        base = {"offset": 100}
        got = parallel_map(lambda x: x + base["offset"], [1, 2, 3], jobs=2)
        assert got == [101, 102, 103]

    def test_parallel_map_propagates_exceptions(self):
        def boom(x):
            raise RuntimeError(f"task {x}")

        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2], jobs=2)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValidationError):
            parallel_map(lambda x: x, [1], jobs=0)

    def test_figure2_parallel_is_deterministic(self):
        """Figure 2 and the ablations fan their (point, run) grid out with
        ``grouped_map``; the pool must regroup it to the serial result."""
        def panel(jobs):
            return run_figure2(
                alpha=2.0, flow_counts=(8, 12), runs=2, fat_tree_k=4,
                jobs=jobs,
            )

        assert panel(jobs=2) == panel(jobs=1)
