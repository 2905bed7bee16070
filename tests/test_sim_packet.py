"""Tests for the store-and-forward packet-level validator."""

from __future__ import annotations

import math

import pytest

from tests.conftest import random_flows_on
from tests.oracles.packet import simulate_packets
from repro.core import solve_dcfsr, sp_mcf
from repro.errors import ValidationError
from repro.flows import Flow, FlowSet
from repro.scheduling import FlowSchedule, Schedule, Segment


def single_flow_schedule(size=4.0, rate=2.0, hops=2):
    path = tuple(f"n{i}" for i in range(hops + 1))
    flow = Flow(
        id=1, src=path[0], dst=path[-1], size=size, release=0.0,
        deadline=size / rate,
    )
    schedule = Schedule(
        [
            FlowSchedule(
                flow=flow,
                path=path,
                segments=(Segment(0.0, size / rate, rate),),
            )
        ]
    )
    return FlowSet([flow]), schedule


class TestSingleFlow:
    def test_all_packets_delivered(self):
        flows, schedule = single_flow_schedule()
        report = simulate_packets(schedule, flows, packet_size=0.5)
        assert report.packets_delivered == 8

    def test_partial_final_packet(self):
        flows, schedule = single_flow_schedule(size=1.1)
        report = simulate_packets(schedule, flows, packet_size=0.5)
        assert report.packets_delivered == 3

    def test_pipeline_lateness_is_per_hop_serialization(self):
        """One flow, no contention: lateness = (hops) extra packet
        serializations minus the fluid overlap — strictly under one packet
        time per hop."""
        flows, schedule = single_flow_schedule(size=4.0, rate=2.0, hops=3)
        report = simulate_packets(schedule, flows, packet_size=0.2)
        packet_time = 0.2 / 2.0
        assert report.lateness[1] <= 3 * packet_time + 1e-9
        assert report.within_estimate

    def test_smaller_packets_reduce_lateness(self):
        flows, schedule = single_flow_schedule(size=4.0, rate=2.0, hops=3)
        coarse = simulate_packets(schedule, flows, packet_size=1.0)
        fine = simulate_packets(schedule, flows, packet_size=0.1)
        assert fine.lateness[1] < coarse.lateness[1]

    def test_arrival_after_fluid_finish(self):
        flows, schedule = single_flow_schedule()
        report = simulate_packets(schedule, flows, packet_size=0.5)
        assert report.arrival_times[1] >= 2.0  # fluid finish = deadline


class TestContention:
    def test_priority_rules_accepted(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=1)
        rs = solve_dcfsr(flows, ft4, quadratic, seed=1)
        for rule in ("edf", "start"):
            report = simulate_packets(
                rs.schedule, flows, packet_size=0.5, priority=rule
            )
            assert report.packets_delivered > 0

    def test_every_flow_arrives(self, ft4, quadratic):
        flows = random_flows_on(ft4, 8, seed=2)
        rs = solve_dcfsr(flows, ft4, quadratic, seed=2)
        report = simulate_packets(rs.schedule, flows, packet_size=0.5)
        assert set(report.arrival_times) == {f.id for f in flows}
        expected = sum(math.ceil(f.size / 0.5) for f in flows)
        assert report.packets_delivered == expected

    def test_lateness_bounded_fraction_of_horizon(self, ft4, quadratic):
        """Cascaded store-and-forward slip must stay well under the horizon
        (otherwise the fluid guarantee would be meaningless in practice)."""
        flows = random_flows_on(ft4, 8, seed=3)
        rs = solve_dcfsr(flows, ft4, quadratic, seed=3)
        report = simulate_packets(rs.schedule, flows, packet_size=0.25)
        horizon = flows.horizon_length
        assert report.max_lateness <= 0.5 * horizon

    def test_mcf_schedule_with_start_priority(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=4)
        sp = sp_mcf(flows, ft4, quadratic)
        report = simulate_packets(
            sp.schedule, flows, packet_size=0.5, priority="start"
        )
        assert set(report.arrival_times) == {f.id for f in flows}

    def test_queue_forms_under_contention(self, quadratic):
        """Two same-priority-class flows sharing a link must queue."""
        from repro.topology import line

        topo = line(3)
        f1 = Flow(id=1, src="n0", dst="n2", size=2.0, release=0, deadline=2)
        f2 = Flow(id=2, src="n0", dst="n2", size=2.0, release=0, deadline=4)
        flows = FlowSet([f1, f2])
        schedule = Schedule(
            [
                FlowSchedule(flow=f1, path=("n0", "n1", "n2"),
                             segments=(Segment(0, 2, 1.0),)),
                FlowSchedule(flow=f2, path=("n0", "n1", "n2"),
                             segments=(Segment(0, 4, 0.5),)),
            ]
        )
        report = simulate_packets(schedule, flows, packet_size=0.5)
        # Packets are produced at fluid rate, so the queue stays shallow but
        # must form at least momentarily on the shared links.
        assert report.max_queue_length >= 1
        # EDF: the earlier-deadline flow finishes first.
        assert report.arrival_times[1] < report.arrival_times[2]


class TestValidation:
    def test_bad_packet_size(self, ft4, quadratic):
        flows = random_flows_on(ft4, 3, seed=5)
        rs = solve_dcfsr(flows, ft4, quadratic, seed=5)
        with pytest.raises(ValidationError):
            simulate_packets(rs.schedule, flows, packet_size=0.0)

    def test_bad_priority(self, ft4, quadratic):
        flows = random_flows_on(ft4, 3, seed=5)
        rs = solve_dcfsr(flows, ft4, quadratic, seed=5)
        with pytest.raises(ValidationError):
            simulate_packets(rs.schedule, flows, priority="fifo")
