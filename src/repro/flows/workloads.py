"""Workload generators.

The paper's evaluation draws release times and deadlines uniformly from the
horizon and flow sizes from ``N(10, 3)`` (Section V-C); that generator is
:func:`paper_workload`.  The introduction motivates the deadline model with
partition-aggregate search traffic, so we also provide two standard DCN
workload shapes: incast (partition-aggregate) and all-to-all shuffle.
Streaming arrival traces (Poisson and bursty processes, heavy-tailed
sizes) come from :mod:`repro.traces`.

All generators take an explicit ``numpy`` random generator (or a seed) and
are fully deterministic given it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.flows.flow import Flow, FlowSet
from repro.topology.base import Topology

__all__ = [
    "paper_workload",
    "incast",
    "shuffle",
]


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _pick_endpoints(
    hosts: Sequence[str], rng: np.random.Generator
) -> tuple[str, str]:
    """Two distinct hosts, uniformly at random."""
    i, j = rng.choice(len(hosts), size=2, replace=False)
    return hosts[int(i)], hosts[int(j)]


def _truncated_normal(
    rng: np.random.Generator, mean: float, std: float, minimum: float
) -> float:
    """Draw ``N(mean, std)`` resampling until the value exceeds ``minimum``."""
    for _ in range(1000):
        value = float(rng.normal(mean, std))
        if value > minimum:
            return value
    raise ValidationError(
        f"could not draw a positive size from N({mean}, {std}) in 1000 tries"
    )


def paper_workload(
    topology: Topology,
    num_flows: int,
    horizon: tuple[float, float] = (1.0, 100.0),
    size_mean: float = 10.0,
    size_std: float = 3.0,
    min_span: float = 1.0,
    seed: int | np.random.Generator = 0,
) -> FlowSet:
    """The ICDCS'14 evaluation workload (Section V-C).

    Releases and deadlines are drawn uniformly from ``horizon`` (redrawn
    until ``deadline - release >= min_span`` so densities stay finite and
    the grid's ``lambda`` stays bounded); sizes are ``N(size_mean,
    size_std)`` truncated to be positive; endpoints are distinct uniform
    random hosts.
    """
    if num_flows < 1:
        raise ValidationError(f"num_flows must be >= 1, got {num_flows}")
    t0, t1 = horizon
    if not t1 > t0:
        raise ValidationError(f"empty horizon {horizon!r}")
    if not 0 < min_span <= (t1 - t0):
        raise ValidationError(
            f"min_span must lie in (0, {t1 - t0}], got {min_span}"
        )
    rng = _rng(seed)
    hosts = topology.hosts
    if len(hosts) < 2:
        raise ValidationError("topology must have at least 2 hosts")

    flows = []
    for i in range(num_flows):
        while True:
            a, b = sorted(rng.uniform(t0, t1, size=2).tolist())
            if b - a >= min_span:
                break
        src, dst = _pick_endpoints(hosts, rng)
        size = _truncated_normal(rng, size_mean, size_std, minimum=1e-3)
        flows.append(
            Flow(id=i, src=src, dst=dst, size=size, release=a, deadline=b)
        )
    return FlowSet(flows)


def incast(
    topology: Topology,
    aggregator: str,
    num_workers: int,
    response_size: float,
    release: float = 0.0,
    deadline: float = 1.0,
    seed: int | np.random.Generator = 0,
    jitter: float = 0.0,
) -> FlowSet:
    """Partition-aggregate incast: ``num_workers`` responses to one aggregator.

    Workers are sampled without replacement from the non-aggregator hosts.
    ``jitter`` optionally staggers release times uniformly in
    ``[release, release + jitter]`` while the common deadline stays fixed —
    the classic soft-real-time search pattern from the paper's introduction.
    """
    rng = _rng(seed)
    candidates = [h for h in topology.hosts if h != aggregator]
    if aggregator not in topology:
        raise ValidationError(f"unknown aggregator {aggregator!r}")
    if num_workers < 1 or num_workers > len(candidates):
        raise ValidationError(
            f"num_workers must be in [1, {len(candidates)}], got {num_workers}"
        )
    if jitter < 0 or release + jitter >= deadline:
        raise ValidationError("jitter must satisfy 0 <= jitter < deadline - release")
    workers = rng.choice(len(candidates), size=num_workers, replace=False)
    flows = []
    for i, w in enumerate(sorted(int(x) for x in workers)):
        start = release + (float(rng.uniform(0.0, jitter)) if jitter > 0 else 0.0)
        flows.append(
            Flow(
                id=f"incast-{i}",
                src=candidates[w],
                dst=aggregator,
                size=response_size,
                release=start,
                deadline=deadline,
            )
        )
    return FlowSet(flows)


def shuffle(
    topology: Topology,
    participants: Sequence[str],
    volume: float,
    release: float = 0.0,
    deadline: float = 1.0,
) -> FlowSet:
    """All-to-all shuffle among ``participants`` (MapReduce-style).

    Every ordered pair exchanges ``volume`` units within the common window.
    """
    participants = list(participants)
    if len(participants) < 2:
        raise ValidationError("shuffle needs >= 2 participants")
    for p in participants:
        if p not in topology:
            raise ValidationError(f"unknown participant {p!r}")
    if len(set(participants)) != len(participants):
        raise ValidationError("participants must be distinct")
    flows = []
    for i, src in enumerate(participants):
        for j, dst in enumerate(participants):
            if src == dst:
                continue
            flows.append(
                Flow(
                    id=f"shuffle-{i}-{j}",
                    src=src,
                    dst=dst,
                    size=volume,
                    release=release,
                    deadline=deadline,
                )
            )
    return FlowSet(flows)
