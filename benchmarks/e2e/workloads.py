"""The four replay workloads of the end-to-end benchmark.

Every workload runs on ``fat_tree(8)`` with ``PowerModel.quadratic()``.
Its trace is generated from the run's seed, written to JSONL, and streamed
back through :class:`~repro.traces.TraceReader` inside the timed region,
so trace ingest is part of what is measured.  The loop is closed: trace
time is virtual and the engine pulls the next flow only when it is ready.

Window latency is how long the replay holds its caller at a window
boundary.  For :class:`~repro.traces.ReplayEngine` it is the time from
yielding the first flow of window ``k + 1`` to the engine's next pull,
which covers the policy solve, commits, churn and finalize of window
``k``.  For :class:`~repro.service.ReplayService` it is the duration of
the ``submit()`` that delivers that flow, because window dispatch and
collect run inside it.

Every time is kept on a :class:`HostClock`, which converts it to seconds
of a reference host (see there).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from repro.flows import Flow
from repro.power import PowerModel
from repro.service import ReplayService
from repro.sim import FaultEvent, FaultSchedule
from repro.topology import Topology, fat_tree
from repro.traces import (
    ArrivalProcess,
    EpochDcfsPolicy,
    GreedyDensityPolicy,
    OnlineDensityPolicy,
    PoissonProcess,
    RelaxationRoundingPolicy,
    ReplayEngine,
    ReplayPolicy,
    ReplayReport,
    TraceReader,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    pareto_sizes,
    proportional_slack,
    write_trace_jsonl,
)

__all__ = [
    "FW_KWARGS",
    "WORKLOADS",
    "Workload",
    "HostClock",
    "Replay",
    "build_power",
    "build_topology",
    "write_trace",
]

#: Relax+Round settings shared by the single-engine and sharded workloads.
FW_KWARGS = dict(fw_max_iterations=40, fw_gap_tolerance=5e-3)

#: Share of ``sharded-churn`` flows kept inside one pod: the sharded
#: service's operating point (cross-pod flows are routed in the parent).
LOCALITY = 0.9


def build_topology() -> Topology:
    return fat_tree(8)


def build_power() -> PowerModel:
    return PowerModel.quadratic()


@dataclass(frozen=True)
class Workload:
    """One traffic mix: how to draw its trace and what replays it."""

    name: str
    window: float
    #: Trace flows per repetition, by ``--scale``.
    flows: dict
    #: ``(flows, seed) -> TraceSpec``; the trace is cut at exactly
    #: ``flows`` flows.
    spec: Callable[[int, int], TraceSpec]
    #: ``seed -> policy`` for single-engine workloads; None for the service.
    policy: Callable[[int], ReplayPolicy] | None = None
    #: Correlated switch outages inline in the trace.
    faults: bool = False


class SquareWaveBursts(ArrivalProcess):
    """Poisson arrivals on a fixed ON/OFF schedule: 8 s at 40/s, then
    2 s at 400/s, repeating.

    A Markov-modulated process would draw the burst times from the seed
    too, and how many windows a short trace spends bursting would then
    swing the window-latency percentiles from seed to seed.  Fixing the
    schedule keeps a fifth of the windows bursting on every seed; only
    the arrivals inside it vary.
    """

    #: ``(rate, seconds)`` of the quiet and the burst phase.
    PHASES = ((40.0, 8.0), (400.0, 2.0))

    def mean_rate(self) -> float:
        return sum(r * s for r, s in self.PHASES) / sum(s for _, s in self.PHASES)

    def times(self, rng: np.random.Generator, duration: float) -> Iterator[float]:
        phases = self.PHASES
        phase_start, state = 0.0, 0
        while phase_start < duration:
            rate, length = phases[state]
            phase_end = min(phase_start + length, duration)
            # Poisson arrivals are memoryless, so each phase restarts
            # its exponential gaps at the phase boundary.
            t = phase_start
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t > phase_end:
                    break
                yield t
            phase_start += length
            state ^= 1


def _spec(arrivals: ArrivalProcess, **kwargs) -> Callable[[int, int], TraceSpec]:
    def spec(n: int, seed: int) -> TraceSpec:
        # Twice the mean arrival window: the trace is cut at n flows.
        return TraceSpec(
            arrivals=arrivals,
            duration=2.0 * n / arrivals.mean_rate(),
            seed=seed,
            **kwargs,
        )

    return spec


_PAPER_SIZES = dict(
    size_sampler=lognormal_sizes(1.0, 0.6),
    slack_model=proportional_slack(3.0, 1.0),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Algorithm 2 (Relax+Round) as a streaming policy: F-MCF interval
        # solves are nearly all of its time.
        Workload(
            name="relax-poisson",
            window=0.5,
            flows={"full": 1400, "smoke": 60},
            spec=_spec(PoissonProcess(25.0), **_PAPER_SIZES),
            policy=lambda seed: RelaxationRoundingPolicy(seed=seed, **FW_KWARGS),
        ),
        # Bursts through Online+Density: no F-MCF at all, so a change to
        # the relaxation must leave it unmoved; stresses fastpath routing,
        # the load ledger, the accountant and trace ingest.
        Workload(
            name="online-burst",
            window=1.0,
            flows={"full": 12000, "smoke": 300},
            spec=_spec(
                SquareWaveBursts(), size_sampler=pareto_sizes(1.5, 1.0, cap=50.0)
            ),
            policy=lambda seed: OnlineDensityPolicy(),
        ),
        # Epoch-DCFS: the paper's Most-Critical-First path through
        # core.dcfs, scheduling.yds and scheduling.edf.
        Workload(
            name="dcfs-epoch",
            window=0.5,
            flows={"full": 11000, "smoke": 200},
            spec=_spec(PoissonProcess(200.0)),
            policy=lambda seed: EpochDcfsPolicy(),
        ),
        # The 2-shard service on intra-pod traffic with inline switch
        # outages: shard dispatch/IPC, repair and committed-flow
        # truncation, which no single-engine workload reaches.
        Workload(
            name="sharded-churn",
            window=1.0,
            flows={"full": 7500, "smoke": 250},
            spec=_spec(PoissonProcess(25.0), **_PAPER_SIZES),
            faults=True,
        ),
    )
}


def _rehome(topology: Topology, flows: Iterator[Flow], seed: int):
    """Re-draw endpoints so ``LOCALITY`` of the flows stay inside a pod."""
    pods: dict[str, list[str]] = {}
    for host in topology.hosts:
        pods.setdefault(topology.node_groups[host], []).append(host)
    pod_hosts = [pods[label] for label in sorted(pods)]
    rng = np.random.default_rng((seed, 1))
    for flow in flows:
        home = int(rng.integers(len(pod_hosts)))
        members = pod_hosts[home]
        src_i, dst_i = rng.choice(len(members), size=2, replace=False)
        if rng.random() < LOCALITY:
            dst = members[int(dst_i)]
        else:
            away = int(rng.integers(len(pod_hosts) - 1))
            away += away >= home
            dst = pod_hosts[away][int(rng.integers(len(pod_hosts[away])))]
        yield dataclasses.replace(flow, src=members[int(src_i)], dst=dst)


def write_trace(
    workload: Workload, topology: Topology, seed: int, n: int, path: str
) -> int:
    """Generate the workload's ``n``-flow trace and write it as JSONL."""
    spec = workload.spec(n, seed)
    flows = islice(generate_trace(topology, spec), n)
    faults = None
    if workload.faults:
        flows = _rehome(topology, flows, seed)
        # The outage timeline is part of the workload, like the burst
        # schedule: drawn from a fixed seed over the mean trace span, so
        # every seed replays the same outages and only the flows vary.
        faults = FaultSchedule.generate_correlated(
            topology,
            rate=0.2,
            duration=n / spec.arrivals.mean_rate(),
            mttr=5.0,
            seed=0,
        )
    return write_trace_jsonl(flows, path, faults=faults)


#: :func:`probe` on the 2-vCPU Xeon VM the bounds were set on, in its
#: fast state.  :class:`HostClock` reports seconds of that host.
REFERENCE_PROBE_S = 110e-6

#: How much more a replay slows than the probe on that host: replay time
#: grows as the probe's slowdown to this power.  Fitted at 1.2–1.4 per
#: workload over 57 back-to-back replays of one fixed trace; the low end
#: is used for every workload, so a slow spell is under- rather than
#: over-corrected.  The ten-seed sets in the README were all run after
#: it was fixed, and none of them was used to choose it.
PROBE_SENSITIVITY = 1.2

_PROBE_VALUES = np.random.default_rng(0).random(400)
_PROBE_SORTED = np.sort(_PROBE_VALUES)


def probe() -> float:
    """Seconds the host now takes for a fixed sliver of work (best of 3).

    The work mixes interpreter-bound dict updates with small NumPy
    searches and bincounts, the replay's own diet; one pass takes
    ~0.1 ms on the reference host.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        counts: dict[int, int] = {}
        for i in range(600):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        for _ in range(6):
            np.bincount(
                np.searchsorted(_PROBE_SORTED, _PROBE_VALUES),
                weights=_PROBE_VALUES,
                minlength=401,
            )
        best = min(best, perf_counter() - start)
    return best


class HostClock:
    """Elapsed time in seconds of the reference host.

    The shared host this benchmark was built on flips between a fast and
    a ~1.7x slower state every few seconds, and CPU time slows with it,
    so raw times measure the neighbours as much as the program.
    :meth:`mark` probes the host's speed; the work between two marks is
    credited at the mean of their speeds, each
    ``(REFERENCE_PROBE_S / probe()) ** PROBE_SENSITIVITY``, and the
    probes' own time is left out.
    """

    def __init__(self) -> None:
        self.seconds = 0.0  # reference-host seconds credited so far
        self.raw_seconds = 0.0  # the same work in wall seconds
        self._last_end: float | None = None
        self._last_speed = 1.0

    def mark(self) -> float:
        """Close the segment since the previous mark; returns its speed
        factor (reference seconds per wall second)."""
        now = perf_counter()
        speed = (REFERENCE_PROBE_S / probe()) ** PROBE_SENSITIVITY
        factor = (self._last_speed + speed) / 2.0
        if self._last_end is not None:
            work = now - self._last_end
            self.raw_seconds += work
            self.seconds += work * factor
        self._last_speed = speed
        self._last_end = perf_counter()
        return factor


class Replay:
    """One prepared replay of a trace file: build in set-up, then :meth:`run`.

    ``greedy=True`` replays the same trace through Greedy+Density on a
    single engine (same window, same inline faults): the energy baseline.
    """

    def __init__(
        self,
        workload: Workload,
        topology: Topology,
        power: PowerModel,
        seed: int,
        path: str,
        greedy: bool = False,
    ) -> None:
        self.workload = workload
        self.path = path
        self.samples: list[float] = []
        self.clock = HostClock()
        self.service: ReplayService | None = None
        self.engine: ReplayEngine | None = None
        #: The single engine's policy class (None for the service).
        self.policy: type | None = None
        if workload.policy is None and not greedy:
            self.service = ReplayService(
                topology,
                power,
                workload.window,
                num_shards=2,
                mode="relax",
                seed=seed,
                **FW_KWARGS,
            )
        else:
            policy = GreedyDensityPolicy() if greedy else workload.policy(seed)
            self.policy = type(policy)
            self.engine = ReplayEngine(
                topology, power, policy, window=workload.window
            )

    def run(self) -> ReplayReport:
        """Replay the whole trace on :attr:`clock`; each window's latency
        lands in :attr:`samples`, in reference-host seconds."""
        self.clock.mark()
        with TraceReader(self.path, include_faults=True) as reader:
            if self.service is not None:
                with self.service:
                    self._feed_service(reader)
                    report = self.service.drain()
            else:
                report = self.engine.run(self._stream(reader))
        self.clock.mark()
        return report

    def _boundaries(self, reader: TraceReader):
        """Yield ``(item, first_of_window)`` for every trace item."""
        window = self.workload.window
        t0 = None
        last_k = 0
        for item in reader:
            if isinstance(item, FaultEvent):
                yield item, False
                continue
            if t0 is None:
                t0 = item.release
            k = int((item.release - t0) // window)
            yield item, k > last_k
            last_k = k

    def _stream(self, reader: TraceReader) -> Iterator:
        samples, mark = self.samples, self.clock.mark
        for item, first in self._boundaries(reader):
            if first:
                start = perf_counter()
                yield item
                latency = perf_counter() - start
                samples.append(latency * mark())
            else:
                yield item

    def _feed_service(self, reader: TraceReader) -> None:
        service, samples, mark = self.service, self.samples, self.clock.mark
        for item, first in self._boundaries(reader):
            if isinstance(item, FaultEvent):
                service.submit_fault(item)
            elif first:
                start = perf_counter()
                service.submit(item)
                latency = perf_counter() - start
                samples.append(latency * mark())
            else:
                service.submit(item)
