"""Relax+Round without its caches: the oracle of the cached pipelines.

:class:`~repro.traces.policies.RelaxationRoundingPolicy` keeps its
relaxation pipelines (solver, path registry, walk caches) across a run's
windows.  :class:`ColdRelaxationPolicy` drops them before every window,
so each window solves on a fresh pipeline; a replay must commit the same
schedules either way (``tests/test_relax_replay.py``,
``tests/test_background_profile.py``), and ``bench_relax_replay.py``
times the two.  Nothing outside the tests wants a cold policy, so it
lives beside them; tests and benchmarks import it as
``tests.oracles.policies``.
"""

from __future__ import annotations

from repro.traces.policies import RelaxationRoundingPolicy

__all__ = ["ColdRelaxationPolicy"]


class ColdRelaxationPolicy(RelaxationRoundingPolicy):
    """Relax+Round on a fresh pipeline every window (same rounding RNG)."""

    def schedule_window(self, flows, ctx):
        self._base_pipeline = None
        self._survivor_cache = None
        return super().schedule_window(flows, ctx)
