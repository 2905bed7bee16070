"""Tests for the ASCII link-sparkline renderer."""

from __future__ import annotations

import pytest

from tests.conftest import random_flows_on
from repro.analysis import render_link_sparklines
from repro.core import sp_mcf
from repro.errors import ValidationError
from repro.flows import Flow, FlowSet
from repro.scheduling import FlowSchedule, Schedule, Segment


def simple_schedule():
    flow = Flow(id="f", src="a", dst="b", size=2.0, release=1.0, deadline=5.0)
    return Schedule(
        [
            FlowSchedule(
                flow=flow, path=("a", "b"), segments=(Segment(1.0, 3.0, 1.0),)
            )
        ]
    )


class TestSparklines:
    def test_busiest_link_first(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=1)
        result = sp_mcf(flows, ft4, quadratic)
        text = render_link_sparklines(result.schedule, horizon=flows.horizon)
        peaks = [
            float(line.rsplit("peak=", 1)[1]) for line in text.splitlines()
        ]
        assert peaks == sorted(peaks, reverse=True)

    def test_top_limits_rows(self, ft4, quadratic):
        flows = random_flows_on(ft4, 6, seed=1)
        result = sp_mcf(flows, ft4, quadratic)
        text = render_link_sparklines(
            result.schedule, horizon=flows.horizon, top=3
        )
        assert len(text.splitlines()) == 3

    def test_simple_profile_glyphs(self):
        text = render_link_sparklines(simple_schedule(), horizon=(0, 6), width=24)
        line = text.splitlines()[0]
        assert "@" in line  # the peak reaches the top glyph
        assert "peak=1" in line

    def test_width_validated(self):
        with pytest.raises(ValidationError):
            render_link_sparklines(simple_schedule(), width=4)
