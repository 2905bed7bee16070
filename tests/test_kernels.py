"""Cross-backend pinning suite for the compiled kernel tier (DESIGN.md §15).

The tier's one kernel, the EDF event sweep in
:mod:`repro.kernels._impl`, is written in the numba nopython subset and
runs either compiled (``compiled`` backend) or as plain Python (the
hidden ``interpreted`` backend).  Same code, same floating-point
operation order — so pinning ``interpreted`` against the array and
scalar EDF engines proves the *compiled* tier bit-identical too, on
machines without numba.  This suite covers:

* the registry: resolution order, env var, explicit override, the
  single :class:`KernelFallbackWarning` when ``compiled`` is requested
  without numba, and identical results on the fallback path;
* EDF: ``edf_schedule_compiled`` pinned exactly (schedules *and*
  infeasibility messages) to the arrays engine and the scalar engine,
  dyadic Hypothesis sweep plus a float-dust fuzz, and the dispatcher's
  switch to it when the kernel tier is active.
"""

from __future__ import annotations

import importlib.util
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import InfeasibleError
from repro.scheduling import EdfJob, edf_schedule
from repro.scheduling.edf import (
    edf_schedule_arrays,
    edf_schedule_compiled,
    edf_schedule_scalar,
)

HAVE_NUMBA = importlib.util.find_spec("numba") is not None


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend selection clean."""
    yield
    kernels.reset_backend()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_auto_resolution(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        kernels.reset_backend()
        assert kernels.requested_backend() == "auto"
        expected = "compiled" if HAVE_NUMBA else "python"
        assert kernels.active_backend() == expected
        if not HAVE_NUMBA:
            assert kernels.active() is None
            assert kernels.numba_version() is None

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        kernels.reset_backend()
        assert kernels.active_backend() == "python"
        assert kernels.active() is None
        monkeypatch.setenv(kernels.ENV_VAR, "interpreted")
        kernels.reset_backend()
        assert kernels.active_backend() == "interpreted"
        assert kernels.active() is not None

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        kernels.set_backend("interpreted")
        assert kernels.requested_backend() == "interpreted"
        assert kernels.active_backend() == "interpreted"

    def test_unknown_env_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "turbo")
        kernels.reset_backend()
        with pytest.warns(kernels.KernelFallbackWarning):
            assert kernels.requested_backend() == "auto"

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("turbo")

    def test_kernel_info_shape(self):
        kernels.set_backend("interpreted")
        info = kernels.kernel_info()
        assert set(info) == {"requested", "backend", "numba"}
        assert info["requested"] == "interpreted"
        assert info["backend"] == "interpreted"
        assert info["numba"] is None

    def test_warmup_runs_every_kernel(self):
        kernels.set_backend("interpreted")
        kernels.warmup()  # must not raise on any kernel body

    def test_compiled_fallback_without_numba(self, monkeypatch):
        """``compiled`` without numba: one warning, python tier, identical
        results to an explicit ``python`` selection."""
        monkeypatch.setitem(sys.modules, "numba", None)
        kernels.set_backend("compiled")
        with pytest.warns(kernels.KernelFallbackWarning) as caught:
            assert kernels.active_backend() == "python"
        assert len(caught) == 1
        assert kernels.active() is None
        assert kernels.numba_version() is None
        assert kernels.kernel_info()["backend"] == "python"
        # The resolution is cached: no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.active_backend() == "python"
        jobs = [
            EdfJob(f"j{i}", i % 7, 40.0 + i, 0.5) for i in range(60)
        ]
        fallback_schedule = edf_schedule(jobs)
        kernels.set_backend("python")
        assert edf_schedule(jobs) == fallback_schedule


# ----------------------------------------------------------------------
# EDF compiled engine
# ----------------------------------------------------------------------
#: Dyadic rationals: exact in float64, so every engine's arithmetic is
#: exact and outputs must match bit for bit (mirrors tests/test_edf.py).
_dyadic = st.integers(0, 160).map(lambda k: k / 8.0)
_dyadic_pos = st.integers(1, 40).map(lambda k: k / 8.0)

def _run_edf(fn, jobs, blocked):
    try:
        return ("ok", fn(jobs, blocked))
    except InfeasibleError as exc:
        return ("infeasible", str(exc))


class TestEdfCompiledEngine:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_engines_agree_exactly(self, data):
        n = data.draw(st.integers(1, 12))
        jobs = []
        for i in range(n):
            release = data.draw(_dyadic)
            duration = data.draw(_dyadic_pos)
            slack = data.draw(_dyadic)
            jobs.append(
                EdfJob(f"j{i}", release, release + duration + slack,
                       duration)
            )
        blocked = []
        for _ in range(data.draw(st.integers(0, 3))):
            start = data.draw(_dyadic)
            blocked.append((start, start + data.draw(_dyadic_pos)))
        # Compiled == arrays everywhere, including the exact
        # infeasibility message (they share transform and wording).
        want = _run_edf(edf_schedule_arrays, jobs, blocked)
        assert _run_edf(edf_schedule_compiled, jobs, blocked) == want
        # Versus the scalar engine: exact schedules when feasible,
        # agreement on the verdict when not (the engines word their
        # certificates differently — same contract as test_edf.py).
        try:
            reference = edf_schedule_scalar(jobs, blocked)
        except InfeasibleError:
            assert want[0] == "infeasible"
        else:
            assert want == ("ok", reference)

    def test_float_dust_fuzz(self):
        """Non-dyadic floats: run-splitting dust, deadline-tolerance
        edges and infeasibility messages must match the arrays engine
        exactly (the reference works in real time and can differ from
        the available-coordinate engines in the last ulp here)."""
        rng = np.random.default_rng(23)
        infeasible_seen = 0
        for trial in range(60):
            n = int(rng.integers(1, 40))
            jobs = []
            for i in range(n):
                release = float(rng.uniform(0, 15))
                duration = float(rng.uniform(0.05, 2.5))
                slack = float(rng.uniform(0, 6))
                jobs.append(
                    EdfJob(f"j{i}", release,
                           release + duration + slack, duration)
                )
            blocked = [
                (s, s + float(rng.uniform(0.1, 2.0)))
                for s in rng.uniform(0, 15, int(rng.integers(0, 4)))
            ]
            want = _run_edf(edf_schedule_arrays, jobs, blocked)
            assert _run_edf(edf_schedule_compiled, jobs, blocked) == want
            infeasible_seen += want[0] == "infeasible"
        assert 0 < infeasible_seen < 60  # both outcomes exercised

    def test_infeasibility_message_identical(self):
        # 50 jobs x 1.25 work into a 50-long window: certified miss.
        jobs = [EdfJob(f"j{i}", 0.0, 50.0, 1.25) for i in range(50)]
        with pytest.raises(InfeasibleError) as arrays_exc:
            edf_schedule_arrays(jobs)
        with pytest.raises(InfeasibleError) as compiled_exc:
            edf_schedule_compiled(jobs)
        assert str(compiled_exc.value) == str(arrays_exc.value)
        with pytest.raises(InfeasibleError):
            edf_schedule_scalar(jobs)

    def test_dispatcher_uses_kernel_backend(self):
        jobs = [
            EdfJob(f"j{i}", float(i % 9), 70.0 + i, 0.75)
            for i in range(64)
        ]
        kernels.set_backend("python")
        want = edf_schedule(jobs)
        assert want == edf_schedule_arrays(jobs)
        kernels.set_backend("interpreted")
        assert edf_schedule(jobs) == want
