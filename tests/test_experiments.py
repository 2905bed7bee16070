"""Smoke tests for the experiment harness, Figure 2, and ablations.

These run at deliberately tiny scale; the full-scale reproduction lives in
``benchmarks/`` and ``python -m repro.experiments.figure2``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.experiments import (
    lambda_ablation,
    rounding_ablation,
    sigma_ablation,
    topology_ablation,
)
from repro.experiments.figure2 import (
    PAPER_FLOW_COUNTS,
    figure2_table,
    run_figure2,
)
from repro.power import PowerModel

SRC = Path(__file__).resolve().parents[1] / "src"


class TestFigure2:
    def test_paper_constants(self):
        assert PAPER_FLOW_COUNTS == (40, 80, 120, 160, 200)

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_small_scale_panel(self, alpha):
        result = run_figure2(
            alpha=alpha,
            flow_counts=(8, 16),
            runs=1,
            fat_tree_k=4,
            horizon=(1.0, 20.0),
        )
        assert result.alpha == alpha
        assert [p.label for p in result.points] == ["8", "16"]
        rs = result.series("RS")
        sp = result.series("SP+MCF")
        assert all(r >= 1.0 - 1e-9 for r in rs)
        assert all(s >= 1.0 - 1e-9 for s in sp)

    def test_runs_validated(self):
        with pytest.raises(ValidationError):
            run_figure2(flow_counts=(4,), runs=0, fat_tree_k=4)

    def test_table_rendering(self):
        result = run_figure2(
            alpha=2.0, flow_counts=(6,), runs=1, fat_tree_k=4,
            horizon=(1.0, 10.0),
        )
        table = figure2_table(result)
        text = table.render()
        assert "Figure 2" in text
        assert "RS mean" in text and "SP+MCF mean" in text
        assert len(table.rows) == 1

    def test_cli_entrypoint(self, capsys, tmp_path):
        from repro.experiments.figure2 import main

        csv = tmp_path / "fig2.csv"
        code = main(
            [
                "--alpha", "2", "--runs", "1", "--fat-tree-k", "4",
                "--flows", "6", "--csv", str(csv),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert csv.exists()

    def test_module_runs_without_runpy_warning(self):
        """``python -m repro.experiments.figure2`` must not find its own
        module loaded already: when the package imported it, runpy
        warned with a RuntimeWarning before running the script."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), env.get("PYTHONPATH")))
        )
        done = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.experiments.figure2", "--help",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning" not in done.stderr


class TestAblations:
    def test_sigma(self):
        table = sigma_ablation(sigmas=(0.0, 1.0), num_flows=8, runs=1)
        assert len(table.rows) == 2

    def test_lambda(self):
        table = lambda_ablation(skews=(0.0, 2.0), num_flows=8, runs=1)
        assert len(table.rows) == 2

    def test_rounding(self):
        table = rounding_ablation(num_flows=8, draws=5, seed=0)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert float(row[1]) <= float(row[2]) <= float(row[3])  # min<=mean<=max

    def test_topology(self):
        table = topology_ablation(num_flows=6, runs=1)
        assert len(table.rows) == 5  # five fabrics
