"""Tests for the ablation CLI runner and the error hierarchy."""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.errors import (
    CapacityError,
    InfeasibleError,
    ReproError,
    SolverError,
    TopologyError,
    ValidationError,
)
from repro.experiments.parallel import parallel_map, worker_slots
from repro.experiments.runner import ABLATIONS, main


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ValidationError, TopologyError, InfeasibleError, CapacityError,
         SolverError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_catchable_individually(self):
        with pytest.raises(InfeasibleError):
            raise InfeasibleError("missed deadline")


class TestRunnerCli:
    def test_registry_complete(self):
        assert set(ABLATIONS) == {
            "sigma", "lambda", "rounding", "rounding-mode", "topology",
            "failures", "online", "traces", "relax-replay", "churn",
            "churn-correlated",
        }

    def test_single_ablation_runs(self, capsys, monkeypatch, tmp_path):
        # Swap in a tiny stand-in so the CLI test stays fast.
        from repro.analysis.reporting import Table

        def tiny(jobs: int = 1):
            table = Table(title="tiny", columns=("a",))
            table.add_row(1)
            return table

        monkeypatch.setitem(ABLATIONS, "rounding", tiny)
        code = main(["--which", "rounding", "--csv-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert (tmp_path / "ablation_rounding.csv").exists()

    def test_unknown_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(["--which", "nonsense"])


def _tiny_ablation(label: str):
    """Stand-in ablation exercising the real parallel_map fan-out."""
    from repro.analysis.reporting import Table

    def ablation(jobs: int = 1):
        table = Table(title=f"tiny-{label}", columns=("task", "value"))
        for task, value in zip(
            range(4), parallel_map(lambda i: i * i + len(label), range(4),
                                   jobs=jobs)
        ):
            table.add_row(task, value)
        return table

    return ablation


class TestSharedSlotRunner:
    """`--which all --jobs N` fans every ablation into one slot pool."""

    def _swap_in_tiny(self, monkeypatch):
        for name in list(ABLATIONS):
            monkeypatch.setitem(ABLATIONS, name, _tiny_ablation(name))

    def test_all_parallel_output_matches_serial(self, capsys, monkeypatch):
        self._swap_in_tiny(monkeypatch)
        assert main(["--which", "all", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["--which", "all", "--jobs", "2"]) == 0
        shared = capsys.readouterr().out
        assert shared == serial
        assert "tiny-sigma" in serial

    def test_worker_slots_parity(self):
        with worker_slots(2):
            out = parallel_map(lambda i: i + 10, range(6), jobs=3)
        assert out == [i + 10 for i in range(6)]

    def test_worker_slots_does_not_nest(self):
        if mp.get_start_method() != "fork":
            pytest.skip("slot semaphore only engages on fork platforms")
        with worker_slots(2):
            with pytest.raises(ValidationError):
                with worker_slots(2):
                    pass  # pragma: no cover

    def test_worker_slots_rejects_bad_jobs(self):
        with pytest.raises(ValidationError):
            with worker_slots(0):
                pass  # pragma: no cover
