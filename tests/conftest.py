"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flows import Flow, FlowSet
from repro.power import PowerModel
from repro.topology import dumbbell, fat_tree, leaf_spine, line, star


@pytest.fixture
def quadratic() -> PowerModel:
    """The paper's f(x) = x^2 evaluation power model."""
    return PowerModel.quadratic()


@pytest.fixture
def quartic() -> PowerModel:
    """The paper's f(x) = x^4 evaluation power model."""
    return PowerModel.quartic()


@pytest.fixture
def powerdown() -> PowerModel:
    """A model with a nonzero idle term and finite capacity."""
    return PowerModel(sigma=2.0, mu=1.0, alpha=2.0, capacity=10.0)


@pytest.fixture
def line3():
    """The paper's Example 1 topology: A - B - C."""
    return line(3)


@pytest.fixture
def ft4():
    return fat_tree(4)


@pytest.fixture
def small_star():
    return star(4)


@pytest.fixture
def small_dumbbell():
    return dumbbell(2, 2)


@pytest.fixture
def small_leafspine():
    return leaf_spine(2, 2, hosts_per_leaf=2)


@pytest.fixture
def example1_flows() -> FlowSet:
    """The two flows of the paper's Example 1."""
    return FlowSet(
        [
            Flow(id=1, src="n0", dst="n2", size=6, release=2, deadline=4),
            Flow(id=2, src="n0", dst="n1", size=8, release=1, deadline=3),
        ]
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_flows_on(
    topology, n: int, seed: int, horizon=(0.0, 20.0), min_span=1.0
) -> FlowSet:
    """Small random workload helper shared by several test modules."""
    rng = np.random.default_rng(seed)
    hosts = topology.hosts
    flows = []
    t0, t1 = horizon
    for i in range(n):
        while True:
            a, b = sorted(rng.uniform(t0, t1, size=2).tolist())
            if b - a >= min_span:
                break
        src_i, dst_i = rng.choice(len(hosts), size=2, replace=False)
        flows.append(
            Flow(
                id=i,
                src=hosts[int(src_i)],
                dst=hosts[int(dst_i)],
                size=float(rng.uniform(1.0, 10.0)),
                release=a,
                deadline=b,
            )
        )
    return FlowSet(flows)


def dyadic_ft4_flows(shift: float = 0.0, first_id: int = 0) -> list[Flow]:
    """Three fat_tree(4) flows whose Most-Critical-First rounds are exact.

    All three cross pod 0 between its two edge switches, so they share the
    ``sw_a_p00_0`` uplinks on 4-link paths: under quadratic power each
    virtual weight is exactly ``2 * size``.  Every round's intensity is a
    power of two (2, then 1, then 1, with a near-tie between links in the
    second round), so rates, durations and EDF boundaries are dyadic
    rationals float64 holds exactly at any shift keeping 1/8 s resolution:
    the rates are 1, 1/2 and 1/2 wherever the instance sits in time.
    """
    spans = (
        ("h_p00_e0_0", "h_p00_e1_0", 0.125, 0.0, 0.125),
        ("h_p00_e0_1", "h_p00_e1_1", 0.125, 0.0, 0.5),
        ("h_p00_e0_0", "h_p00_e1_1", 0.0625, 0.25, 0.375),
    )
    return [
        Flow(
            id=first_id + i,
            src=src,
            dst=dst,
            size=size,
            release=shift + release,
            deadline=shift + deadline,
        )
        for i, (src, dst, size, release, deadline) in enumerate(spans)
    ]
