"""Global-epoch fluid replay: the oracle of the event-driven simulator.

:func:`simulate_fluid_reference` replays a schedule epoch by epoch,
rebuilding every link's instantaneous rate from scratch at each global
epoch.  It is the original O(epochs x flows x path) implementation of
:func:`repro.sim.simulate_fluid`, which ``tests/test_perf_kernels.py``
pins to it.  No replay, experiment or library path runs it, so it lives
beside the tests; tests and benchmarks import it as
``tests.oracles.fluid``.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.flows.flow import FlowSet
from repro.power.model import PowerModel
from repro.scheduling.schedule import Schedule
from repro.sim.fluid import LinkStats, SimulationReport
from repro.topology.base import Edge, Topology

__all__ = ["simulate_fluid_reference"]


def simulate_fluid_reference(
    schedule: Schedule,
    flows: FlowSet,
    topology: Topology,
    power: PowerModel,
    horizon: tuple[float, float] | None = None,
    tol: float = 1e-6,
) -> SimulationReport:
    """Replay ``schedule`` epoch by epoch and report energy + feasibility.

    The original global-epoch sweep, reconstructing every link's
    instantaneous rate from scratch at each epoch — the pinning
    reference for the event-driven :func:`repro.sim.simulate_fluid`.
    """
    if horizon is None:
        horizon = flows.horizon
    t0, t1 = horizon

    # Global epochs: all segment boundaries, clipped to the horizon.
    times = {t0, t1}
    for fs in schedule:
        for seg in fs.segments:
            times.add(seg.start)
            times.add(seg.end)
    epochs = sorted(t for t in times if t0 <= t <= t1)
    if len(epochs) < 2:
        raise ValidationError("schedule has no extent inside the horizon")

    # Per-flow segment iterators: (start, end, rate, edges).
    flow_pieces = {
        fs.flow.id: [(s.start, s.end, s.rate, fs.edges) for s in fs.segments]
        for fs in schedule
    }

    transmitted: dict[int | str, float] = {fid: 0.0 for fid in flow_pieces}
    completion: dict[int | str, float] = {}
    peak: dict[Edge, float] = {}
    busy: dict[Edge, float] = {}
    volume: dict[Edge, float] = {}
    dyn_energy: dict[Edge, float] = {}
    violations: list[str] = []

    for a, b in zip(epochs, epochs[1:]):
        dt = b - a
        rates: dict[Edge, float] = {}
        for fid, pieces in flow_pieces.items():
            for s, e, rate, edges in pieces:
                if s <= a and b <= e:
                    transmitted[fid] += rate * dt
                    for edge in edges:
                        rates[edge] = rates.get(edge, 0.0) + rate
            flow = flows[fid]
            if (
                fid not in completion
                and transmitted[fid] >= flow.size * (1.0 - tol)
            ):
                completion[fid] = b
        for edge, rate in rates.items():
            peak[edge] = max(peak.get(edge, 0.0), rate)
            busy[edge] = busy.get(edge, 0.0) + dt
            volume[edge] = volume.get(edge, 0.0) + rate * dt
            dyn_energy[edge] = dyn_energy.get(edge, 0.0) + power.dynamic_power(
                rate
            ) * dt
            if rate > power.capacity * (1.0 + tol):
                violations.append(
                    f"link {edge!r}: rate {rate:.6g} > capacity "
                    f"{power.capacity:g} during [{a:g}, {b:g}]"
                )

    deadlines_met = {}
    for flow in flows:
        done = completion.get(flow.id)
        deadlines_met[flow.id] = (
            done is not None and done <= flow.deadline + tol
        )

    idle = power.sigma * (t1 - t0) * len(peak)
    dynamic = sum(dyn_energy.values())
    stats = {
        edge: LinkStats(
            peak_rate=peak[edge],
            busy_time=busy[edge],
            volume_carried=volume[edge],
            dynamic_energy=dyn_energy[edge],
        )
        for edge in peak
    }
    return SimulationReport(
        horizon=horizon,
        total_energy=idle + dynamic,
        idle_energy=idle,
        dynamic_energy=dynamic,
        active_links=len(peak),
        completion_times=completion,
        deadlines_met=deadlines_met,
        link_stats=stats,
        capacity_violations=violations,
        epochs=len(epochs) - 1,
    )
