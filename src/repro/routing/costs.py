"""Vectorized edge-cost functions for the fractional MCF solver.

The relaxation inside Random-Schedule charges every link a convex cost of
its load.  With the paper's evaluation power functions (``sigma = 0``) that
cost is simply ``mu * x^alpha``; with a power-down term the discontinuous
``f`` is replaced by its convex envelope (see
:meth:`repro.power.PowerModel.envelope`).  A quadratic penalty can be added
to discourage loads above capacity while keeping the objective smooth.

Costs operate on numpy arrays of per-edge loads so the Frank–Wolfe inner
loop stays vectorized.  :func:`marginal_price` is the link price of
every marginal-cost router.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.power.model import PowerModel

__all__ = ["DEAD_EDGE_WEIGHT", "EdgeCost", "envelope_cost", "marginal_price"]

#: Routing weight of a dead link: high enough that any surviving route
#: wins, finite so Dijkstra stays well-defined — a route that still
#: crosses a dead link after the clamp proves no survivor path exists.
DEAD_EDGE_WEIGHT = 1e15


@dataclass(frozen=True)
class EdgeCost:
    """A convex, differentiable edge cost ``c(x)`` with optional capacity
    penalty ``penalty * max(0, x - capacity)^2``.

    Attributes
    ----------
    power:
        The link power model whose convex envelope is charged.
    penalty:
        Quadratic overload penalty coefficient (0 disables).
    """

    power: PowerModel
    penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.penalty < 0:
            raise ValidationError(f"penalty must be >= 0, got {self.penalty}")

    def value(self, loads: np.ndarray) -> np.ndarray:
        """Per-edge cost of the given loads (vectorized envelope)."""
        p = self.power
        loads = np.maximum(loads, 0.0)
        if p.alpha == 2.0:  # x**2.0 still pays the pow kernel
            dynamic = p.mu * loads * loads
        elif p.alpha == 4.0:
            squared = loads * loads
            dynamic = p.mu * squared * squared
        else:
            dynamic = p.mu * loads**p.alpha
        if p.sigma == 0.0:
            cost = dynamic
        else:
            x_star = p.best_operating_rate
            slope = p.power(x_star) / x_star
            cost = np.where(
                loads >= x_star, p.sigma + dynamic, loads * slope
            )
            cost = np.where(loads <= 0.0, 0.0, cost)
        if self.penalty > 0.0 and np.isfinite(p.capacity):
            over = np.maximum(loads - p.capacity, 0.0)
            cost = cost + self.penalty * over**2
        return cost

    def derivative(self, loads: np.ndarray) -> np.ndarray:
        """Per-edge marginal cost (vectorized envelope derivative)."""
        p = self.power
        loads = np.maximum(loads, 0.0)
        if p.alpha == 2.0:  # x**1.0 still pays the pow kernel
            dyn_deriv = (p.mu * 2.0) * loads
        elif p.alpha == 4.0:
            dyn_deriv = (p.mu * 4.0) * loads * loads * loads
        else:
            dyn_deriv = p.mu * p.alpha * loads ** (p.alpha - 1.0)
        if p.sigma == 0.0:
            deriv = dyn_deriv
        else:
            x_star = p.best_operating_rate
            slope = p.power(x_star) / x_star
            deriv = np.where(loads >= x_star, dyn_deriv, slope)
        if self.penalty > 0.0 and np.isfinite(p.capacity):
            over = np.maximum(loads - p.capacity, 0.0)
            deriv = deriv + 2.0 * self.penalty * over
        return deriv

    @property
    def polynomial_degree(self) -> int | None:
        """The cost's integer degree when it is a pure power law.

        For ``mu * x**alpha`` with small integer ``alpha`` (no idle term,
        no capacity penalty), a directional derivative is a degree
        ``alpha - 1`` polynomial in the step size, so the Frank–Wolfe
        line search can bisect a scalar polynomial built from ``alpha``
        moment sums instead of re-evaluating vector derivatives.  None
        when the cost is not such a power law.
        """
        p = self.power
        if p.sigma != 0.0 or (self.penalty > 0.0 and np.isfinite(p.capacity)):
            return None
        if p.alpha != int(p.alpha) or not 2 <= p.alpha <= 8:
            return None
        return int(p.alpha)

    def curvature(self, loads: np.ndarray) -> np.ndarray:
        """Per-edge second derivative of the cost (vectorized).

        Used by the Frank–Wolfe pairwise sweeps to Newton-size the mass
        shifted between two paths.  On the envelope's linear segment (below
        the optimal operating rate) the curvature is 0; callers must guard
        against division by a vanishing curvature sum.
        """
        p = self.power
        loads = np.maximum(loads, 0.0)
        if p.alpha == 2.0:
            curv = np.full(loads.shape, 2.0 * p.mu)
        else:
            # 0 ** negative exponent correctly yields inf (alpha < 2) and
            # 0 ** positive exponent yields 0 (alpha > 2).
            with np.errstate(divide="ignore"):
                curv = p.mu * p.alpha * (p.alpha - 1.0) * loads ** (
                    p.alpha - 2.0
                )
        if p.sigma != 0.0:
            curv = np.where(loads >= p.best_operating_rate, curv, 0.0)
        if self.penalty > 0.0 and np.isfinite(p.capacity):
            curv = curv + np.where(loads > p.capacity, 2.0 * self.penalty, 0.0)
        return curv

    def total(self, loads: np.ndarray) -> float:
        """Sum of per-edge costs."""
        return float(np.sum(self.value(loads)))

    def scalar_value(self, load: float) -> float:
        """Convenience scalar wrapper (used by the reference solver)."""
        return float(self.value(np.asarray([load]))[0])

    def scalar_derivative(self, load: float) -> float:
        return float(self.derivative(np.asarray([load]))[0])


def envelope_cost(power: PowerModel, penalty: float | None = None) -> EdgeCost:
    """Standard cost for the relaxation: envelope of ``f`` plus a capacity
    penalty sized relative to the marginal cost at capacity.

    ``penalty=None`` auto-scales to ``100 * c'(C) / C`` for finite
    capacities (a gentle barrier that FW can still line-search across) and
    0 otherwise.
    """
    if penalty is None:
        if np.isfinite(power.capacity):
            marginal_at_cap = power.mu * power.alpha * power.capacity ** (
                power.alpha - 1.0
            )
            penalty = 100.0 * marginal_at_cap / power.capacity
        else:
            penalty = 0.0
    return EdgeCost(power=power, penalty=penalty)


def marginal_price(cost: EdgeCost, loads: np.ndarray) -> np.ndarray:
    """Per-edge link price of the marginal-cost routers: ``c'(x)`` at
    each link's committed load ``x``, floored at 1e-12 so the router's
    weights are strictly positive.  A fresh array the caller may edit."""
    return np.maximum(cost.derivative(loads), 1e-12)
