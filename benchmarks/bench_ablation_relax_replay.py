"""Benchmark ABL-RELAX-REPLAY: the relaxation policy in the streaming lineup.

Replays one Poisson trace under Relax+Round (Algorithm 2 per window,
one stacked solve per window), Online+Density, and Greedy+Density, and prints
the measured table.  Every policy is a density scheduler, so the trace
must replay miss-free; the relaxation policy's multi-path spreading
should not cost energy against the greedy baseline.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablations import relax_replay_ablation


@pytest.mark.benchmark(group="ablation")
def test_relax_replay_vs_heuristics(benchmark, capsys):
    def run():
        return relax_replay_ablation(rate=3.0, duration=30.0, window=6.0)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(table.render())
    rows = {row[0]: row for row in table.rows}
    assert set(rows) == {"Relax+Round", "Online+Density", "Greedy+Density"}
    for name, row in rows.items():
        assert float(row[3]) == 0.0, f"{name} missed deadlines"
    # Identical trace seen by every policy.
    assert len({row[1] for row in table.rows}) == 1
    relax = float(rows["Relax+Round"][4])
    greedy = float(rows["Greedy+Density"][4])
    assert relax <= greedy * 1.05
