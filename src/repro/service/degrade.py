"""Backpressure for the replay service: degrade before falling behind.

A serving stack cannot let one expensive window stall the admission
pipeline, so the service carries a *solve budget*: when the relaxation
falls behind it, subsequent windows skip Relax+Round and fall back to
Greedy+Density — the load-oblivious O(path) policy that always keeps up
— until the backlog clears.  Degradation is **recorded honestly**: every
degraded window is counted on the report
(:attr:`~repro.traces.replay.ReplayReport.degraded_windows`), per shard
in the breakdown, and flagged on the per-window stats the service's
``poll()`` returns, so a cheap run can never masquerade as a Relax+Round
run.  This budget is the only thing that degrades a window: a crashed
worker's windows are re-solved as they were sent.

Two triggers, both optional:

* ``per_window_s`` — the previous relaxation window took longer than
  this wall-clock budget.  Recovery is by probing: the degraded (greedy)
  window is fast, so the next window tries the relaxation again; a
  persistently slow fabric therefore alternates solve/degrade instead of
  drifting unboundedly behind the arrival stream.
* ``max_in_flight`` — more than this many windows (an integer) are
  already dispatched and uncollected (the pipeline is backing up).  ``0``
  degrades every window: the deterministic "greedy only" stance used by
  tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

__all__ = ["SolveBudget", "DegradeController"]


@dataclass(frozen=True)
class SolveBudget:
    """Per-window solve budget; ``None`` fields disable that trigger."""

    per_window_s: float | None = None
    max_in_flight: int | None = None

    def __post_init__(self) -> None:
        # NaN fails ``>= 0``: a NaN budget would never trigger.
        if self.per_window_s is not None and not self.per_window_s >= 0:
            raise ValidationError(
                f"per_window_s must be >= 0, got {self.per_window_s}"
            )
        # NaN or 1.5 would be compared against a whole queue depth, and
        # ``depth > nan`` never triggers.
        if self.max_in_flight is not None and not (
            isinstance(self.max_in_flight, (int, np.integer))
            and self.max_in_flight >= 0
        ):
            raise ValidationError(
                "max_in_flight must be an integer >= 0, got "
                f"{self.max_in_flight!r}"
            )


class DegradeController:
    """Tracks solve pressure and decides each window's fallback.

    The controller is consulted at *dispatch* time (before the window's
    own cost is known) and observes measured solve times at *collect*
    time — with window pipelining the freshest observation is therefore
    one pipeline depth old, which is exactly the staleness a real
    admission controller lives with.
    """

    def __init__(self, budget: SolveBudget | None) -> None:
        self._budget = budget
        self._over_budget = False

    def should_degrade(self, in_flight: int) -> bool:
        """Decide window fate given the current dispatch queue depth."""
        budget = self._budget
        if budget is None:
            return False
        if (
            budget.max_in_flight is not None
            and in_flight > budget.max_in_flight
        ):
            return True
        return self._over_budget

    def observe(self, solve_s: float, degraded: bool) -> None:
        """Feed back one collected window's measured solve time."""
        if degraded:
            # Greedy windows are cheap by construction; clear the flag so
            # the next dispatch probes the relaxation again.
            self._over_budget = False
            return
        budget = self._budget
        self._over_budget = (
            budget is not None
            and budget.per_window_s is not None
            and solve_s > budget.per_window_s
        )
