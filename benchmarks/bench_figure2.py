"""Benchmark FIG2: regenerate both panels of the paper's Figure 2.

The paper's only results figure plots normalized energy (fractional lower
bound = 1) against the number of flows for Random-Schedule and SP+MCF, on
an 80-switch/128-server fat-tree, for f(x) = x^2 and f(x) = x^4.

This harness runs the full paper sweep (n = 40..200) at a reduced number
of repetitions so the whole bench stays in CI budget; run
``python -m repro.experiments.figure2 --alpha 2 --runs 10`` for the
paper-exact 10-run protocol.  The series table is printed through the
capture bypass so it lands in the benchmark log.
"""

from __future__ import annotations

import pytest

from repro.experiments.figure2 import (
    PAPER_FLOW_COUNTS,
    figure2_table,
    run_figure2,
)

RUNS = 2


def _run_panel(alpha: float, capsys) -> None:
    result = run_figure2(
        alpha=alpha,
        flow_counts=PAPER_FLOW_COUNTS,
        runs=RUNS,
        fat_tree_k=8,
        base_seed=17,
    )
    table = figure2_table(result)
    with capsys.disabled():
        print()
        print(table.render())
    # The figure's qualitative claims must hold:
    rs = result.series("RS")
    sp = result.series("SP+MCF")
    # RS stays within a small factor of LB and SP+MCF is always worse.
    assert all(r < s for r, s in zip(rs, sp))
    # SP+MCF deteriorates with scale; RS does not (first vs last point).
    assert sp[-1] > sp[0]
    assert rs[-1] <= rs[0] * 1.25


@pytest.mark.benchmark(group="figure2")
def test_figure2_alpha2(benchmark, capsys):
    benchmark.pedantic(
        _run_panel, args=(2.0, capsys), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="figure2")
def test_figure2_alpha4(benchmark, capsys):
    benchmark.pedantic(
        _run_panel, args=(4.0, capsys), rounds=1, iterations=1
    )
