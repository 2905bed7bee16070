"""Per-layer call sites and the per-layer metrics derived from them.

Each layer of the replay is timed at the public call sites listed in
:func:`sites`.  Functions imported by name are wrapped where they are
imported (``repro.core.dcfs.edf_schedule``, ``repro.traces.policies.
solve_dcfs``, ...); methods are wrapped on their class.

Layer times are reported as shares of the traced repetition's wall time
(``*_share``, unit ``fraction``) next to that wall time itself
(``trace.wall_s``): a layer a workload bypasses reads 0 on every run,
and a share keeps that honest zero from posing as a measured time.
Seconds are ``share * trace.wall_s``.  ``trace.coverage`` is the share
of the wall spent inside a span with no traced parent.
"""

from __future__ import annotations

import pickle

from repro.core import dcfs
from repro.core.dcfsr import RelaxationPipeline
from repro.experiments.parallel import WorkerGroup
from repro.routing.fastpath import FastRouter, LoadLedger
from repro.routing.mcflow import RelaxationSession
from repro.scheduling import edf
from repro.traces import ChurnManager, TraceReader, WindowAccountant, policies

from tracer import Site, Tracer
from workloads import FW_KWARGS

__all__ = ["sites", "layer_metrics"]

_GAP_TOLERANCE = FW_KWARGS["fw_gap_tolerance"]


def _arrivals(args, kwargs, result):
    return {"arrivals": len(args[1])}


def _interval(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "commodities": len(args[1]),
        "gap_met": int(result.relative_gap <= _GAP_TOLERANCE),
    }


def _edf_jobs(args, kwargs, result):
    return {"jobs": len(args[0])}


def _message_bytes(args, kwargs, result):
    return {"bytes": len(pickle.dumps(args[2]))}


def sites(policy_cls: type | None) -> list[Site]:
    """Every traced call site; ``policy_cls`` is the workload's policy
    (None for the sharded service, which has no window policy)."""
    listed = [
        Site(TraceReader, "__next__", "traces.store.read"),
        Site(WindowAccountant, "commit", "acct.commit"),
        Site(WindowAccountant, "finalize", "acct.finalize"),
        Site(WindowAccountant, "background_profile", "acct.background_profile"),
        Site(WindowAccountant, "truncate_commit", "acct.truncate"),
        Site(RelaxationPipeline, "solve", "relax.window"),
        Site(RelaxationSession, "solve", "relax.interval", _interval),
        Site(RelaxationPipeline, "weights", "rounding.aggregate"),
        Site(policies, "sample_paths", "rounding.draw"),
        Site(FastRouter, "route", "fastpath.route"),
        Site(LoadLedger, "loads", "fastpath.ledger_loads"),
        Site(LoadLedger, "commit", "fastpath.ledger_commit"),
        Site(policies, "solve_dcfs", "core.dcfs"),
        Site(dcfs, "critical_interval_arrays", "scheduling.yds"),
        Site(dcfs, "edf_schedule", "scheduling.edf", _edf_jobs),
        Site(edf, "edf_schedule_arrays", "scheduling.edf.array_engine"),
        Site(edf, "edf_schedule_compiled", "scheduling.edf.array_engine"),
        Site(ChurnManager, "apply_upto", "repair.apply"),
        Site(WorkerGroup, "submit", "service.submit", _message_bytes),
        Site(WorkerGroup, "collect", "service.collect"),
    ]
    if policy_cls is not None:
        listed.append(
            Site(policy_cls, "schedule_window", "policy", _arrivals)
        )
    return listed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, rep: dict) -> dict:
    """Per-layer metrics of one traced repetition, as ``name -> (value,
    unit)``.  ``wall_s`` is the repetition's unscaled replay time and
    ``rep`` carries its report counters and service telemetry.
    ``trace.wall_s`` and ``trace.overhead`` need the host-speed scaling
    and the untraced runs, and are added by the caller."""
    stat = tracer.stat

    def share(*names: str) -> float:
        return sum(stat(name).self_s for name in names) / wall_s

    policy = stat("policy")
    interval = stat("relax.interval")
    edf_calls = stat("scheduling.edf")
    submit = stat("service.submit")
    count, frac = "count", "fraction"
    return {
        "traces.store.read_share": (share("traces.store.read"), frac),
        "policy.calls": (policy.calls, count),
        "policy.self_share": (share("policy"), frac),
        "policy.arrivals_per_call": (
            _ratio(policy.counters.get("arrivals", 0), policy.calls),
            "flows/call",
        ),
        "acct.commit.calls": (stat("acct.commit").calls, count),
        "acct.commit.self_share": (share("acct.commit"), frac),
        "acct.finalize.self_share": (share("acct.finalize"), frac),
        "acct.background_profile.calls": (
            stat("acct.background_profile").calls, count
        ),
        "acct.background_profile.self_share": (
            share("acct.background_profile"), frac
        ),
        "acct.truncate.calls": (stat("acct.truncate").calls, count),
        "acct.truncate.self_share": (share("acct.truncate"), frac),
        "acct.max_resident_segments": (rep["max_resident_segments"], count),
        "relax.window_solves": (stat("relax.window").calls, count),
        "relax.interval_solves": (interval.calls, count),
        "relax.self_share": (share("relax.window", "relax.interval"), frac),
        "relax.iterations": (interval.counters.get("iterations", 0), count),
        "relax.iterations_per_solve": (
            _ratio(interval.counters.get("iterations", 0), interval.calls),
            "iter/solve",
        ),
        "relax.commodities_per_solve": (
            _ratio(interval.counters.get("commodities", 0), interval.calls),
            "flows/solve",
        ),
        "relax.gap_met_ratio": (
            _ratio(interval.counters.get("gap_met", 0), interval.calls), frac
        ),
        "rounding.aggregate_share": (share("rounding.aggregate"), frac),
        "rounding.draw_share": (share("rounding.draw"), frac),
        "fastpath.route.calls": (stat("fastpath.route").calls, count),
        "fastpath.route.self_share": (share("fastpath.route"), frac),
        "fastpath.ledger_loads.self_share": (
            share("fastpath.ledger_loads"), frac
        ),
        "fastpath.ledger_commit.self_share": (
            share("fastpath.ledger_commit"), frac
        ),
        "core.dcfs.calls": (stat("core.dcfs").calls, count),
        "core.dcfs.self_share": (share("core.dcfs"), frac),
        "core.dcfs.fallbacks": (rep["policy_fallbacks"], count),
        "scheduling.yds.calls": (stat("scheduling.yds").calls, count),
        "scheduling.yds.self_share": (share("scheduling.yds"), frac),
        "scheduling.edf.calls": (edf_calls.calls, count),
        "scheduling.edf.self_share": (
            share("scheduling.edf", "scheduling.edf.array_engine"), frac
        ),
        "scheduling.edf.jobs_per_call": (
            _ratio(edf_calls.counters.get("jobs", 0), edf_calls.calls),
            "jobs/call",
        ),
        "scheduling.edf.array_engine_share": (
            _ratio(stat("scheduling.edf.array_engine").calls, edf_calls.calls),
            frac,
        ),
        "repair.apply_share": (share("repair.apply"), frac),
        "repair.flows_rerouted": (rep["flows_rerouted"], count),
        "repair.misses_attributed": (rep["misses_attributed"], count),
        "repair.triaged": (rep["repairs_triaged"], count),
        "service.shard_solve_share": (rep["shard_solve_s"] / wall_s, frac),
        "service.submit.calls": (submit.calls, count),
        "service.submit.bytes": (submit.counters.get("bytes", 0), "bytes"),
        "service.collect.wait_share": (share("service.collect"), frac),
        "service.degraded_windows": (rep["degraded_windows"], count),
        "service.cross_flows": (rep["cross_flows"], count),
        "trace.coverage": (tracer.coverage(wall_s), frac),
    }
