"""Ablation experiments beyond the paper's Figure 2 (DESIGN.md ABL-*).

Each function regenerates one ablation series; the corresponding
``benchmarks/bench_ablation_*.py`` harness prints its table.

* :func:`sigma_ablation` — how the idle-power (power-down) term shifts the
  RS vs SP+MCF comparison.  With sigma > 0, consolidating flows onto fewer
  links pays twice: fewer active links *and* better amortized idle energy.
* :func:`lambda_ablation` — sensitivity to the interval-granularity factor
  ``lambda`` (Theorem 6's leading term): same workload shape, increasingly
  skewed interval lengths.
* :func:`rounding_ablation` — rounding variance: distribution of RS energy
  over repeated independent rounding draws from one relaxation.
* :func:`topology_ablation` — RS vs SP+MCF across structurally different
  DCN fabrics at matched scale.
* :func:`trace_ablation` — sliding-horizon replay of one generated arrival
  trace under the online policy, per-epoch DCFS, and the greedy baseline.

Every ablation takes a ``jobs`` parameter: its independent
(sweep-point, run-seed) tasks fan out over a fork-based process pool
(:mod:`repro.experiments.parallel`) with the existing deterministic
seeding, so parallel tables are identical to serial ones.
"""

from __future__ import annotations

from statistics import mean, stdev
from typing import Sequence

import numpy as np

from repro.analysis.reporting import Table
from repro.core.baselines import greedy_marginal_routing, sp_mcf
from repro.core.dcfsr import round_schedule, solve_dcfsr
from repro.core.relaxation import default_cost, solve_relaxation
from repro.errors import ValidationError
from repro.experiments.harness import single_run
from repro.experiments.parallel import grouped_map, parallel_map
from repro.flows.flow import Flow, FlowSet
from repro.flows.intervals import TimeGrid
from repro.flows.workloads import paper_workload
from repro.power.model import PowerModel
from repro.routing.mcflow import FrankWolfeSolver
from repro.topology.base import Topology
from repro.traces import (
    EpochDcfsPolicy,
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
from repro.topology.bcube import bcube
from repro.topology.fattree import fat_tree
from repro.topology.leafspine import leaf_spine
from repro.topology.random_graphs import jellyfish
from repro.topology.vl2 import vl2

__all__ = [
    "sigma_ablation",
    "lambda_ablation",
    "rounding_ablation",
    "rounding_mode_ablation",
    "topology_ablation",
    "failure_ablation",
    "online_ablation",
    "trace_ablation",
    "relax_replay_ablation",
    "churn_ablation",
    "churn_correlated_ablation",
]


def sigma_ablation(
    sigmas: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    num_flows: int = 60,
    fat_tree_k: int = 4,
    runs: int = 3,
    base_seed: int = 0,
    jobs: int = 1,
) -> Table:
    """RS vs SP+MCF normalized energy as idle power sigma grows."""
    topology = fat_tree(fat_tree_k)
    table = Table(
        title="ABL-SIGMA: idle power vs normalized energy (LB = 1)",
        columns=("sigma", "RS mean", "SP+MCF mean", "RS/SP ratio"),
    )

    def one(sigma: float, run: int) -> dict[str, float]:
        return single_run(
            topology,
            PowerModel(sigma=sigma, mu=1.0, alpha=2.0),
            workload_factory=lambda seed: paper_workload(
                topology, num_flows, seed=seed
            ),
            seed=base_seed + 1000 * run,
        )

    for sigma, chunk in zip(sigmas, grouped_map(one, sigmas, runs, jobs)):
        rs = mean(r["RS"] for r in chunk)
        sp = mean(r["SP+MCF"] for r in chunk)
        table.add_row(sigma, rs, sp, rs / sp)
    return table


def _skewed_workload(
    topology: Topology, num_flows: int, skew: float, seed: int
) -> FlowSet:
    """Workload whose interval lengths get progressively more skewed.

    ``skew = 0`` reproduces the uniform paper workload; larger skews
    concentrate breakpoints by raising uniform draws to a power, shrinking
    the smallest interval and inflating ``lambda``.
    """
    rng = np.random.default_rng(seed)
    hosts = topology.hosts
    flows = []
    for i in range(num_flows):
        while True:
            u = rng.uniform(0.0, 1.0, size=2) ** (1.0 + skew)
            a, b = sorted((1.0 + 99.0 * u).tolist())
            if b - a >= 1.0:
                break
        src, dst = (hosts[int(i)] for i in rng.choice(len(hosts), 2, replace=False))
        size = max(float(rng.normal(10.0, 3.0)), 1e-3)
        flows.append(Flow(id=i, src=src, dst=dst, size=size, release=a, deadline=b))
    return FlowSet(flows)


def lambda_ablation(
    skews: Sequence[float] = (0.0, 1.0, 2.0, 4.0),
    num_flows: int = 50,
    fat_tree_k: int = 4,
    runs: int = 3,
    base_seed: int = 0,
    jobs: int = 1,
) -> Table:
    """Does a larger lambda (Theorem 6 factor) hurt RS in practice?"""
    topology = fat_tree(fat_tree_k)
    power = PowerModel.quadratic()
    table = Table(
        title="ABL-LAMBDA: interval skew vs RS quality",
        columns=("skew", "mean lambda", "RS mean", "SP+MCF mean"),
    )

    def one(skew: float, run: int) -> tuple[float, float, float]:
        seed = base_seed + 1000 * run
        flows = _skewed_workload(topology, num_flows, skew, seed)
        lam = TimeGrid(flows).lam
        rs = solve_dcfsr(flows, topology, power, seed=seed)
        sp = sp_mcf(flows, topology, power)
        return (
            lam,
            rs.energy.total / rs.lower_bound,
            sp.energy.total / rs.lower_bound,
        )

    for skew, chunk in zip(skews, grouped_map(one, skews, runs, jobs)):
        table.add_row(
            skew,
            mean(r[0] for r in chunk),
            mean(r[1] for r in chunk),
            mean(r[2] for r in chunk),
        )
    return table


def rounding_ablation(
    num_flows: int = 60,
    fat_tree_k: int = 4,
    draws: int = 30,
    seed: int = 0,
    jobs: int = 1,
) -> Table:
    """Variance of Random-Schedule's energy across rounding draws.

    Solves the relaxation once, then redraws the rounding ``draws`` times.
    The spread quantifies how much the "repeat until feasible/lucky" loop
    can buy.

    ``jobs`` is accepted for harness uniformity but unused: the draws
    deliberately consume one sequential RNG stream, so distributing them
    would change the sampled sequence.
    """
    topology = fat_tree(fat_tree_k)
    power = PowerModel.quadratic()
    flows = paper_workload(topology, num_flows, seed=seed)
    grid = TimeGrid(flows)
    solver = FrankWolfeSolver(topology, default_cost(power))
    relaxation = solve_relaxation(flows, solver, grid)
    lb = relaxation.lower_bound
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(draws):
        schedule, _w = round_schedule(flows, relaxation, rng)
        ratios.append(schedule.energy(power, horizon=grid.horizon).total / lb)
    table = Table(
        title=f"ABL-ROUND: {draws} rounding draws from one relaxation (LB = 1)",
        columns=("draws", "min", "mean", "max", "std"),
    )
    table.add_row(draws, min(ratios), mean(ratios), max(ratios), stdev(ratios))
    return table


def online_ablation(
    flow_counts: Sequence[int] = (20, 40, 60, 80),
    fat_tree_k: int = 4,
    runs: int = 3,
    base_seed: int = 0,
    jobs: int = 1,
) -> Table:
    """The price of being online: Online+Density vs RS vs SP+MCF.

    The online scheduler sees flows only at release time and commits
    irrevocably; offline Random-Schedule sees everything.  The gap between
    the two columns is the empirical cost of no clairvoyance.
    """
    from repro.core.online import solve_online_density

    topology = fat_tree(fat_tree_k)
    power = PowerModel.quadratic()
    table = Table(
        title="ABL-ONLINE: normalized energy, online vs offline (LB = 1)",
        columns=("flows", "Online+Density", "RS (offline)", "SP+MCF"),
    )
    algorithms = {
        "Online": lambda f, t, p: solve_online_density(f, t, p).energy.total
    }

    def one(n: int, run: int) -> dict[str, float]:
        return single_run(
            topology,
            power,
            workload_factory=lambda seed: paper_workload(topology, n, seed=seed),
            seed=base_seed + 1000 * run,
            algorithms=algorithms,
        )

    for n, chunk in zip(flow_counts, grouped_map(one, flow_counts, runs, jobs)):
        table.add_row(
            n,
            mean(r["Online"] for r in chunk),
            mean(r["RS"] for r in chunk),
            mean(r["SP+MCF"] for r in chunk),
        )
    return table


def _poisson_spec(rate: float, duration: float, seed: int) -> TraceSpec:
    """The streaming ablations' trace: Poisson arrivals at ``rate``,
    lognormal(1.0, 0.6) sizes, proportional(3.0, 1.0) slack."""
    return TraceSpec(
        arrivals=PoissonProcess(rate),
        duration=duration,
        size_sampler=lognormal_sizes(1.0, 0.6),
        slack_model=proportional_slack(3.0, 1.0),
        seed=seed,
    )


def _replay_table(
    title: str,
    policies: Sequence,
    spec: TraceSpec,
    fat_tree_k: int,
    window: float,
    jobs: int,
) -> Table:
    """One row per policy: the same trace replayed under each on
    ``fat_tree(fat_tree_k)`` at quadratic power, with the measured miss
    rate, energy and peak stacked link rate."""
    topology = fat_tree(fat_tree_k)
    power = PowerModel.quadratic()
    table = Table(
        title=title,
        columns=(
            "policy", "flows", "windows", "miss rate", "energy", "peak rate",
        ),
    )

    def one(index: int):
        policy = policies[index]
        report = ReplayEngine(topology, power, policy, window=window).run(
            generate_trace(topology, spec)
        )
        return (
            policy.name,
            report.flows_seen,
            report.windows,
            report.miss_rate,
            report.total_energy,
            report.peak_link_rate,
        )

    for row in parallel_map(one, range(len(policies)), jobs=jobs):
        table.add_row(*row)
    return table


def trace_ablation(
    rate: float = 4.0,
    duration: float = 40.0,
    window: float = 8.0,
    fat_tree_k: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> Table:
    """ABL-TRACE: one Poisson trace replayed under five serving policies.

    Unlike the offline ablations (which normalize by the fractional lower
    bound of each drawn instance), this is a *streaming* comparison: every
    policy sees the identical arrival trace through the sliding-horizon
    engine and the table reports what the replay actually measured —
    deadline-miss rate, total energy, and the peak stacked link rate.
    The grid includes the two O(1) switch-lineage baselines
    (power-of-two-choices and least-loaded over k shortest candidates) so
    the marginal-cost and clairvoyant policies are judged against what a
    load-balancing fabric would do with no energy model at all.
    """
    policies = (
        OnlineDensityPolicy(),
        EpochDcfsPolicy(),
        GreedyDensityPolicy(),
        PowerOfTwoPolicy(seed=seed),
        LeastLoadedPolicy(),
    )
    return _replay_table(
        "ABL-TRACE: sliding-horizon replay of one Poisson trace",
        policies,
        _poisson_spec(rate, duration, seed),
        fat_tree_k,
        window,
        jobs,
    )


def relax_replay_ablation(
    rate: float = 3.0,
    duration: float = 30.0,
    window: float = 6.0,
    fat_tree_k: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> Table:
    """ABL-RELAX-REPLAY: Algorithm 2 as a streaming policy.

    Replays one Poisson trace under the relaxation+rounding policy (the
    paper's strongest algorithm run window by window against the
    committed background, one stacked F-MCF solve per window) next to
    the marginal-cost and oblivious heuristics.  Same streaming
    semantics as ABL-TRACE: every policy sees the identical arrivals,
    and the table reports measured miss rate, energy, and peak stacked
    link rate.
    """
    policies = (
        RelaxationRoundingPolicy(seed=seed),
        OnlineDensityPolicy(),
        GreedyDensityPolicy(),
    )
    return _replay_table(
        "ABL-RELAX-REPLAY: relaxation+rounding vs heuristics, streaming",
        policies,
        _poisson_spec(rate, duration, seed),
        fat_tree_k,
        window,
        jobs,
    )


def rounding_mode_ablation(
    num_flows: int = 60,
    fat_tree_k: int = 4,
    runs: int = 5,
    base_seed: int = 0,
    jobs: int = 1,
) -> Table:
    """Random rounding (Algorithm 2) vs argmax-``w_bar`` derandomization.

    Both modes share the same relaxation per run; the table reports the
    normalized energies side by side.
    """
    if runs < 1:
        raise ValidationError(f"runs must be >= 1, got {runs}")
    topology = fat_tree(fat_tree_k)
    power = PowerModel.quadratic()
    table = Table(
        title="ABL-ROUND-MODE: random vs deterministic rounding (LB = 1)",
        columns=("run", "random", "deterministic"),
    )

    def one(run: int) -> tuple[float, float]:
        seed = base_seed + 1000 * run
        flows = paper_workload(topology, num_flows, seed=seed)
        random_result = solve_dcfsr(flows, topology, power, seed=seed)
        det_result = solve_dcfsr(
            flows, topology, power, seed=seed, rounding="deterministic"
        )
        lb = random_result.lower_bound
        return random_result.energy.total / lb, det_result.energy.total / lb

    for run, (rnd, det) in enumerate(parallel_map(one, range(runs), jobs=jobs)):
        table.add_row(run, rnd, det)
    return table


def failure_ablation(
    failure_counts: Sequence[int] = (0, 2, 4, 8),
    num_flows: int = 50,
    fat_tree_k: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> Table:
    """Normalized energy on progressively degraded fabrics.

    Fails switch-to-switch links (hosts stay connected), re-solves both
    algorithms on the survivor topology with the *same* workload, and
    normalizes by the degraded fabric's own lower bound.  Shows whether
    the RS advantage survives the loss of path diversity.
    """
    from repro.sim.failures import fail_links

    base = fat_tree(fat_tree_k)
    power = PowerModel.quadratic()
    flows = paper_workload(base, num_flows, seed=seed)
    table = Table(
        title="ABL-FAIL: link failures vs normalized energy (per-fabric LB = 1)",
        columns=("failed links", "surviving links", "RS", "SP+MCF"),
    )
    def one(count: int) -> tuple[int, int, float, float]:
        topology, _failed = fail_links(base, count, seed=seed + count)
        rs = solve_dcfsr(flows, topology, power, seed=seed)
        sp = sp_mcf(flows, topology, power)
        lb = rs.lower_bound
        return (
            count,
            topology.num_edges,
            rs.energy.total / lb,
            sp.energy.total / lb,
        )

    for row in parallel_map(one, failure_counts, jobs=jobs):
        table.add_row(*row)
    return table


def topology_ablation(
    num_flows: int = 50,
    runs: int = 3,
    base_seed: int = 0,
    jobs: int = 1,
) -> Table:
    """RS vs SP+MCF vs Greedy+MCF across DCN fabrics of comparable size."""
    fabrics: list[Topology] = [
        fat_tree(4),
        bcube(4, 1),
        vl2(4, 4, hosts_per_tor=4),
        leaf_spine(4, 4, hosts_per_leaf=4),
        jellyfish(8, 3, hosts_per_switch=2, seed=1),
    ]
    power = PowerModel.quadratic()
    table = Table(
        title="ABL-TOPO: normalized energy by fabric (LB = 1)",
        columns=("fabric", "hosts", "links", "RS", "SP+MCF", "Greedy+MCF"),
    )
    algorithms = {
        "Greedy+MCF": lambda f, t, p: greedy_marginal_routing(f, t, p).energy.total
    }

    def one(index: int, run: int) -> dict[str, float]:
        topology = fabrics[index]
        return single_run(
            topology,
            power,
            workload_factory=lambda seed: paper_workload(
                topology, num_flows, seed=seed
            ),
            seed=base_seed + 1000 * run,
            algorithms=algorithms,
        )

    chunks = grouped_map(one, range(len(fabrics)), runs, jobs)
    for topology, chunk in zip(fabrics, chunks):
        table.add_row(
            topology.name,
            len(topology.hosts),
            topology.num_edges,
            mean(r["RS"] for r in chunk),
            mean(r["SP+MCF"] for r in chunk),
            mean(r["Greedy+MCF"] for r in chunk),
        )
    return table


def churn_ablation(
    failure_rates: Sequence[float] = (0.0, 0.1, 0.3),
    rate: float = 3.0,
    duration: float = 30.0,
    window: float = 4.0,
    fat_tree_k: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> Table:
    """ABL-CHURN: mid-replay link churn under self-healing policies.

    One Poisson trace is replayed against a seeded connectivity-safe
    link-churn process (failure attempts Poisson at ``failure_rate`` per
    unit time, Exp repair delays) for each policy x failure-rate grid
    point.  Unlike ABL-FAIL — which re-solves on a statically degraded
    fabric — failures here land *mid-replay*: committed flows crossing a
    dead link are truncated at the window boundary, classified, and
    repaired, and the table reports the honest disruption accounting
    (flows rerouted, misses attributed to failures, time-to-recover,
    repair energy delta) next to the energy actually spent.  The
    ``failure_rate = 0`` column doubles as the no-churn regression
    anchor: it must match the fault-free replay of the same trace.
    """
    from repro.sim.churn import FaultSchedule

    topology = fat_tree(fat_tree_k)
    power = PowerModel.quadratic()
    spec = _poisson_spec(rate, duration, seed)
    table = Table(
        title="ABL-CHURN: mid-replay link churn and self-healing repair",
        columns=(
            "policy",
            "fail rate",
            "failures",
            "rerouted",
            "fail misses",
            "other misses",
            "recover t",
            "repair dE",
            "energy",
        ),
    )
    policies = (
        GreedyDensityPolicy,
        OnlineDensityPolicy,
        lambda: RelaxationRoundingPolicy(seed=seed),
    )

    def one(point: tuple[int, float]):
        index, fail_rate = point
        faults = None
        if fail_rate > 0:
            faults = FaultSchedule.generate(
                topology,
                rate=fail_rate,
                duration=duration,
                seed=seed + 7919 * int(round(1000 * fail_rate)),
            )
        policy = policies[index]()
        report = ReplayEngine(
            topology, power, policy, window=window, faults=faults
        ).run(generate_trace(topology, spec))
        return (
            policy.name,
            fail_rate,
            report.link_failures,
            report.flows_rerouted,
            report.misses_attributed_to_failure,
            report.deadline_misses - report.misses_attributed_to_failure,
            report.time_to_recover,
            report.repair_energy_delta,
            report.total_energy,
        )

    grid = [
        (index, fail_rate)
        for index in range(len(policies))
        for fail_rate in failure_rates
    ]
    for row in parallel_map(one, grid, jobs=jobs):
        table.add_row(*row)
    return table


def uplink_conduits(topology: Topology) -> tuple:
    """Agg/core-side bundles of the core uplinks as conduit SRLGs.

    Every aggregation switch's core-facing links run in one physical
    bundle, and every core switch's links share one linecard — two
    overlapping families of shared-risk groups (``conduit:<switch>``)
    over the same uplink edges, so each uplink shares risk with exactly
    the links it touches at either endpoint.  The group is the *risk*
    unit; the failure unit stays a single link.  Built from the fabric's
    node-naming convention (``sw_a_*`` aggregation, ``sw_c_*`` core —
    fat-tree and VL2 alike); fabrics without that structure yield no
    conduits.
    """
    from repro.sim.churn import FailureDomain
    from repro.topology.base import canonical_edge

    conduits = []
    for node in topology.graph.nodes:
        name = str(node)
        if name.startswith("sw_a_"):
            other = "sw_c_"
        elif name.startswith("sw_c_"):
            other = "sw_a_"
        else:
            continue
        uplinks = [
            canonical_edge(name, str(nbr))
            for nbr in topology.graph.neighbors(node)
            if str(nbr).startswith(other)
        ]
        if len(uplinks) >= 2:
            conduits.append(
                FailureDomain.srlg(f"conduit:{name}", uplinks)
            )
    return tuple(sorted(conduits, key=lambda d: d.name))


def churn_correlated_ablation(
    rate: float = 3.0,
    duration: float = 30.0,
    window: float = 4.0,
    fail_rate: float = 0.4,
    mttr: float = 6.0,
    cascade: float = 0.8,
    runs: int = 5,
    fat_tree_k: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> Table:
    """ABL-CHURN-CORR: correlated vs independent churn at matched downtime.

    Three arms replay Poisson traces under GreedyDensity, averaged over
    ``runs`` seeded (trace, fault-schedule) draws:

    * ``independent`` — PR-8-style connectivity-safe single-link churn
      (:meth:`FaultSchedule.generate`), the baseline profile.
    * ``correlated/blind`` — conduit-SRLG churn: primary single-link
      failures drawn over the uplink-conduit members
      (:func:`uplink_conduits`), each cascading to physically adjacent
      links with probability ``cascade`` — but with the SRLG-diversity
      penalty disabled, so repairs are free to land on the failed link's
      conduit sibling, the single most hazardous edge in the fabric.
    * ``correlated/diverse`` — the same fault schedules with SRLG-diverse
      repair: survivor paths sharing a risk group with a down domain are
      penalized, so rerouted flows dodge edges likely to fail next and
      avoid being re-disrupted by the cascade's follow-on failures.

    Each run's independent rate is calibrated by fixed point so its
    total link-seconds of outage (:meth:`FaultSchedule.link_downtime`,
    counted as a per-link union) matches that run's correlated
    schedule — the comparison is at equal downtime fraction, not equal
    event count.  The two correlated arms share schedules, so the
    diverse-vs-blind delta in time-to-recover, reroutes and energy is
    pure repair policy.
    """
    from repro.sim.churn import FailureDomain, FaultSchedule

    topology = fat_tree(fat_tree_k)
    power = PowerModel.quadratic()
    conduits = uplink_conduits(topology)
    if not conduits:
        raise ValidationError(
            f"{topology.name!r} has no aggregation uplink conduits"
        )
    # The generator's unit of failure: one conduit member link at a time
    # (the conduits are the *risk* groups, registered with the engine
    # below, not the failure unit).  Each uplink sits in two conduits —
    # agg-side and core-side — so dedupe into one singleton per link.
    members = sorted({e for conduit in conduits for e in conduit.edges})
    pool = tuple(
        FailureDomain.srlg(f"link:{u}--{v}", [(u, v)]) for u, v in members
    )
    horizon = duration + 10.0 * mttr

    def schedules(run: int) -> tuple:
        correlated = FaultSchedule.generate_correlated(
            topology,
            rate=fail_rate,
            duration=duration,
            mttr=mttr,
            seed=seed + 211 + run,
            domains=pool,
            cascade=cascade,
        )
        target = correlated.link_downtime(topology, horizon)

        def independent_at(link_rate: float) -> FaultSchedule:
            return FaultSchedule.generate(
                topology,
                rate=link_rate,
                duration=duration,
                mttr=mttr,
                seed=seed + 101 + run,
            )

        # Fixed-point calibration: single-link events contribute ~mttr
        # link-seconds each, so downtime scales ~linearly in the rate; a
        # few iterations absorb the connectivity-safe rejections and
        # draw noise, and the best-matching draw wins (short horizons
        # make downtime jumpy in the rate, so the iteration can ring).
        link_rate = fail_rate
        independent = best = independent_at(link_rate)
        best_err = np.inf
        for _ in range(6):
            got = independent.link_downtime(topology, horizon)
            if target <= 0:
                break
            if abs(got - target) < best_err:
                best, best_err = independent, abs(got - target)
            if got <= 0 or best_err <= 0.05 * target:
                break
            link_rate *= target / got
            independent = independent_at(link_rate)
        return best, correlated

    arms = ("independent", "correlated/blind", "correlated/diverse")

    def one(task: tuple[int, int]):
        index, run = task
        independent, correlated = schedules(run)
        faults = independent if index == 0 else correlated
        spec = _poisson_spec(rate, duration, seed + run)
        report = ReplayEngine(
            topology,
            power,
            GreedyDensityPolicy(),
            window=window,
            faults=faults,
            failure_domains=conduits,
            srlg_diverse=index != 1,
        ).run(generate_trace(topology, spec))
        downtime = faults.link_downtime(topology, horizon)
        denom = horizon * topology.num_edges
        return (
            downtime / denom,
            report.link_failures,
            report.domain_failures,
            report.flows_rerouted,
            report.misses_attributed_to_failure,
            report.total_recovery_time,
            report.total_energy,
        )

    grid = [
        (index, run) for index in range(len(arms)) for run in range(runs)
    ]
    results = parallel_map(one, grid, jobs=jobs)
    table = Table(
        title=(
            "ABL-CHURN-CORR: correlated failure domains at matched downtime"
        ),
        columns=(
            "profile",
            "downtime",
            "failures",
            "domains",
            "rerouted",
            "fail misses",
            "recover t",
            "energy",
        ),
    )
    for index, profile in enumerate(arms):
        chunk = results[index * runs : (index + 1) * runs]
        table.add_row(
            profile, *(mean(r[col] for r in chunk) for col in range(7))
        )
    return table
