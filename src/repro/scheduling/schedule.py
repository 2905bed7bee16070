"""Schedules: per-flow routes and rate profiles, energy, and feasibility.

A schedule (paper Eq. (2)) assigns every flow a single path ``P_i`` and a
transmission-rate profile ``s_i(t)`` supported inside the flow's span.  The
profile is represented as disjoint constant-rate :class:`Segment` pieces;
while a segment is active the flow occupies *every* link on its path at the
segment's rate (the paper's virtual-circuit abstraction).

:class:`Schedule` derives per-link rate functions ``x_e(t)`` by summing the
profiles of the flows crossing each link, evaluates the paper's energy
objective

``Phi_f(S) = (T1 - T0) * |E_active| * sigma + \\int sum_e mu x_e(t)^alpha dt``

and verifies feasibility (volumes delivered, spans respected, capacities
honored, paths valid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import CapacityError, ValidationError
from repro.flows.flow import Flow, FlowSet
from repro.power.model import PowerModel
from repro.scheduling.timeline import PiecewiseConstant
from repro.topology.base import Edge, Topology, path_edges

__all__ = [
    "Segment",
    "FlowSchedule",
    "Schedule",
    "EnergyBreakdown",
    "FeasibilityReport",
    "density_schedule",
]

#: Tolerance used by feasibility checks (volumes, deadlines, capacity).
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class Segment:
    """A constant transmission rate on ``[start, end)``."""

    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValidationError(
                f"segment must have positive length, got [{self.start}, {self.end})"
            )
        if not self.rate > 0:
            raise ValidationError(f"segment rate must be > 0, got {self.rate}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def volume(self) -> float:
        """Data moved during this segment."""
        return self.rate * self.duration


@dataclass(frozen=True)
class FlowSchedule:
    """The route and rate profile chosen for one flow."""

    flow: Flow
    path: tuple[str, ...]
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        ordered = sorted(self.segments, key=lambda s: s.start)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end - 1e-12:
                raise ValidationError(
                    f"flow {self.flow.id!r}: overlapping segments "
                    f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                )
        object.__setattr__(self, "segments", tuple(ordered))

    @property
    def transmitted(self) -> float:
        """Total volume the profile delivers."""
        return sum(s.volume for s in self.segments)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return path_edges(self.path)

    @property
    def num_links(self) -> int:
        """``|P_i|``."""
        return len(self.path) - 1

    def within_span(self, tol: float = FEASIBILITY_TOL) -> bool:
        """True when every segment lies inside ``[r_i, d_i]``."""
        return all(
            s.start >= self.flow.release - tol and s.end <= self.flow.deadline + tol
            for s in self.segments
        )

    def completion_time(self) -> float:
        """End of the last segment (the flow's actual finish time)."""
        if not self.segments:
            raise ValidationError(f"flow {self.flow.id!r} has an empty profile")
        return self.segments[-1].end


def density_schedule(flow: Flow, path: tuple[str, ...]) -> FlowSchedule:
    """Full-span density schedule: ``flow`` at its density ``w_i / (d_i -
    r_i)`` on ``path`` over ``[r_i, d_i]`` — the shape every density-rate
    policy commits."""
    return FlowSchedule(
        flow=flow,
        path=path,
        segments=(
            Segment(start=flow.release, end=flow.deadline, rate=flow.density),
        ),
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy objective split into its two physical components."""

    idle: float
    dynamic: float
    active_links: int

    @property
    def total(self) -> float:
        return self.idle + self.dynamic


@dataclass
class FeasibilityReport:
    """Outcome of verifying a schedule against its instance.

    ``ok`` is True iff all checks pass.  Individual violation lists carry
    human-readable diagnostics for debugging and for the simulator's
    assertions.
    """

    volume_violations: list[str] = field(default_factory=list)
    span_violations: list[str] = field(default_factory=list)
    capacity_violations: list[str] = field(default_factory=list)
    path_violations: list[str] = field(default_factory=list)
    missing_flows: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.volume_violations
            or self.span_violations
            or self.capacity_violations
            or self.path_violations
            or self.missing_flows
        )

    @property
    def deadline_feasible(self) -> bool:
        """Deadlines and volumes hold (capacity may still be violated,
        which the paper's minimum-energy schedule permits)."""
        return not (
            self.volume_violations or self.span_violations or self.missing_flows
        )

    def summary(self) -> str:
        if self.ok:
            return "feasible"
        parts = []
        for label, items in (
            ("volume", self.volume_violations),
            ("span", self.span_violations),
            ("capacity", self.capacity_violations),
            ("path", self.path_violations),
            ("missing", self.missing_flows),
        ):
            if items:
                parts.append(f"{len(items)} {label} violation(s)")
        return "; ".join(parts)


class Schedule:
    """A complete solution: one :class:`FlowSchedule` per flow."""

    def __init__(self, flow_schedules: Iterable[FlowSchedule]) -> None:
        self._by_id: dict[int | str, FlowSchedule] = {}
        for fs in flow_schedules:
            if fs.flow.id in self._by_id:
                raise ValidationError(f"duplicate schedule for flow {fs.flow.id!r}")
            self._by_id[fs.flow.id] = fs
        if not self._by_id:
            raise ValidationError("schedule must cover at least one flow")
        self._link_rates: dict[Edge, PiecewiseConstant] | None = None

    def __iter__(self) -> Iterator[FlowSchedule]:
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def __getitem__(self, flow_id: int | str) -> FlowSchedule:
        try:
            return self._by_id[flow_id]
        except KeyError:
            raise ValidationError(f"no schedule for flow {flow_id!r}")

    def __contains__(self, flow_id: int | str) -> bool:
        return flow_id in self._by_id

    # ------------------------------------------------------------------
    # Link-rate functions and energy.
    # ------------------------------------------------------------------
    def link_rates(self) -> dict[Edge, PiecewiseConstant]:
        """``x_e(t)`` for every link that ever carries traffic.

        Concurrent flows on a link stack additively (fluid sharing);
        EDF-serialized schedules never overlap on a link, so the sum is
        also correct for virtual-circuit schedules.

        The profiles are built once per :class:`Schedule` (the schedule is
        immutable) and the same mapping is returned on every call —
        ``energy``, ``active_links``, ``max_link_rate`` and ``verify``
        share it.  Treat the result as read-only.
        """
        if self._link_rates is None:
            rates: dict[Edge, PiecewiseConstant] = {}
            for fs in self:
                for edge in fs.edges:
                    profile = rates.setdefault(edge, PiecewiseConstant())
                    for seg in fs.segments:
                        profile.add(seg.start, seg.end, seg.rate)
            self._link_rates = rates
        return self._link_rates

    def active_links(self) -> tuple[Edge, ...]:
        """Links with nonzero traffic at some time (``E_a`` in the paper)."""
        return tuple(sorted(self.link_rates().keys()))

    def energy(
        self,
        power: PowerModel,
        horizon: tuple[float, float] | None = None,
    ) -> EnergyBreakdown:
        """Evaluate the paper's objective ``Phi_f`` (Eq. (5)).

        Every active link pays idle power ``sigma`` for the *whole* horizon
        (the no-toggling assumption: a link may power down only if it is
        idle for the entire period).  ``horizon`` defaults to the tightest
        window covering all segments.
        """
        link_rates = self.link_rates()
        if horizon is None:
            starts = [s.start for fs in self for s in fs.segments]
            ends = [s.end for fs in self for s in fs.segments]
            horizon = (min(starts), max(ends))
        t0, t1 = horizon
        if not t1 >= t0:
            raise ValidationError(f"bad horizon {horizon!r}")
        dynamic = sum(
            profile.integrate_power(power.alpha, power.mu)
            for profile in link_rates.values()
        )
        idle = power.sigma * (t1 - t0) * len(link_rates)
        return EnergyBreakdown(
            idle=idle, dynamic=dynamic, active_links=len(link_rates)
        )

    def max_link_rate(self) -> float:
        """The peak instantaneous rate over all links."""
        return max(
            (profile.maximum() for profile in self.link_rates().values()),
            default=0.0,
        )

    # ------------------------------------------------------------------
    # Verification.
    # ------------------------------------------------------------------
    def verify(
        self,
        flows: FlowSet,
        topology: Topology,
        power: PowerModel | None = None,
        tol: float = FEASIBILITY_TOL,
    ) -> FeasibilityReport:
        """Check the schedule against the instance it claims to solve."""
        report = FeasibilityReport()
        for flow in flows:
            if flow.id not in self:
                report.missing_flows.append(f"flow {flow.id!r} is unscheduled")
                continue
            fs = self[flow.id]
            if fs.flow != flow:
                report.missing_flows.append(
                    f"flow {flow.id!r} differs from the scheduled flow object"
                )
                continue
            deficit = flow.size - fs.transmitted
            if abs(deficit) > tol * max(1.0, flow.size):
                report.volume_violations.append(
                    f"flow {flow.id!r}: transmitted {fs.transmitted:.6g} "
                    f"of {flow.size:.6g}"
                )
            if not fs.within_span(tol):
                report.span_violations.append(
                    f"flow {flow.id!r}: transmission outside span "
                    f"[{flow.release:g}, {flow.deadline:g}]"
                )
            try:
                topology.validate_path(fs.path, flow.src, flow.dst)
            except Exception as exc:  # TopologyError
                report.path_violations.append(f"flow {flow.id!r}: {exc}")
        if power is not None:
            for edge, profile in sorted(self.link_rates().items()):
                peak = profile.maximum()
                if peak > power.capacity * (1.0 + tol):
                    report.capacity_violations.append(
                        f"link {edge!r}: peak rate {peak:.6g} exceeds "
                        f"capacity {power.capacity:g}"
                    )
        return report

    def verify_strict(
        self, flows: FlowSet, topology: Topology, power: PowerModel
    ) -> None:
        """Raise on any violation (capacity included)."""
        report = self.verify(flows, topology, power)
        if not report.ok:
            raise CapacityError(f"schedule infeasible: {report.summary()}")

    # ------------------------------------------------------------------
    # Convenience accessors.
    # ------------------------------------------------------------------
    def paths(self) -> Mapping[int | str, tuple[str, ...]]:
        """Flow id -> chosen path."""
        return {fid: fs.path for fid, fs in self._by_id.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(flows={len(self)}, links={len(self.link_rates())})"
