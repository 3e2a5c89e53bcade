"""One-risky/one-risk-free allocation for rational, naive and sophisticated agents.

Wealth is ``r_f + alpha * R`` where ``R`` is the realized excess return.
Three solvers share the quadrature grid of the excess-return distribution:

* ``rational_alpha``      -- maximizes objective expected utility;
* ``naive_alpha``         -- a fixed point between the optimal-belief tilt of
  the density (at the current share) and the share maximizing subjective
  expected utility under that tilt: on each sign region of the share, a
  bracketed root of the slope at ``a = alpha`` of utility under the beliefs
  frozen at ``alpha``, confirmed against the gap ``argmax_a obj_alpha(a) - alpha``;
* ``sophisticated_alpha`` -- maximizes expected utility with the loss
  region (the lower ``1 - p_star`` quantile region of the induced utility
  payoff) overweighted by ``lambda``.

Each maximization is of ``sum W u(r_f + a x)`` over nodes ``x`` with positive
weights ``W``: the objective grid for the rational agent, the tilted beliefs
for the naive inner step, and for the sophisticated agent on each sign region
of the share the objective grid followed by that region's loss nodes weighted
by ``lambda - 1``.  Such a sum is concave, so ``_best_share`` finds its maximum
as the Brent root of the first-order condition, or the bound its slope points
to.  Bounds are clipped to the range where wealth stays inside the utility
domain.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._roots import _brent_root
from .beliefs import ConsumptionUtility, _tilt_factors
from .distributions import ContinuousDistribution
from .errors import DomainError, _fields, _finite
from .preferences import LINEAR, Preferences, cutoff_probability

__all__ = [
    "Asset",
    "PortfolioSolution",
    "rational_alpha",
    "naive_alpha",
    "sophisticated_alpha",
    "certainty_equivalent_excess",
    "rational_objective",
    "naive_fixed_objective",
    "sophisticated_objective",
]

DEFAULT_BOUNDS = (-10.0, 10.0)

_FIXED_POINT_TOL = 1e-8
_GAP_SAMPLES = 7  # evenly spaced shares per sign region at which the naive solver samples h
_ZERO_OFFSET = 1e-6  # a sign region's sample next to alpha = 0, as a fraction of its width


@dataclass(frozen=True)
class Asset:
    """Risk-free gross return plus the distribution of the risky excess return."""

    r_f: float
    excess: ContinuousDistribution

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_f", _finite("asset.r_f", self.r_f))

    def to_dict(self) -> dict:
        return {"r_f": self.r_f, "excess": self.excess.to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> "Asset":
        r_f, excess = _fields("asset", obj, "r_f", "excess")
        return cls(r_f, ContinuousDistribution.from_dict(excess))


@dataclass(frozen=True)
class PortfolioSolution:
    """Solved risky share with the quantities used to interpret it.

    ``belief_expectation`` is the expectation of consumption utility under
    the agent's operative beliefs at the solution; ``r_ce`` the excess
    return whose sure receipt matches it (undefined at ``alpha = 0``).
    ``iterations`` counts evaluations of the first-order-condition slope for
    the rational and sophisticated agents (over both sign regions for the
    latter), and evaluations of ``h``, the slope of the frozen-belief
    objective at the share itself, for the naive agent.
    """

    alpha: float
    belief_expectation: float
    r_ce: float | None
    value: float
    converged: bool
    iterations: int

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "belief_expectation": self.belief_expectation,
            "r_ce": self.r_ce,
            "value": self.value,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _feasible_bounds(asset: Asset, utility: ConsumptionUtility, bounds) -> tuple[float, float]:
    """Bounds clipped to where wealth stays in the utility domain on the support."""
    lo_b, hi_b = float(bounds[0]), float(bounds[1])
    if lo_b > hi_b:
        raise ValueError(f"bounds must satisfy lo <= hi, got {bounds}")
    if not utility.needs_positive_wealth:
        return lo_b, hi_b
    s_lo, s_hi = asset.excess.support
    lower, upper = -math.inf, math.inf
    for z in (s_lo, s_hi):
        if z > 0:
            lower = max(lower, -asset.r_f / z)
        elif z < 0:
            upper = min(upper, asset.r_f / (-z))
        elif asset.r_f <= 0:
            lower, upper = math.inf, -math.inf
    if asset.r_f <= 0 and s_lo < 0 < s_hi:
        lower, upper = math.inf, -math.inf
    margin = 1e-10 * max(1.0, abs(lower) if math.isfinite(lower) else 0.0,
                         abs(upper) if math.isfinite(upper) else 0.0)
    lo_eff = max(lo_b, lower + margin)
    hi_eff = min(hi_b, upper - margin)
    if lo_eff > hi_eff:
        raise DomainError(
            f"no risky share in {bounds} keeps wealth inside the domain of {utility.kind} utility"
        )
    return lo_eff, hi_eff


# A sign region's gain-then-loss nodes and weights, their products, the index
# where the loss nodes start, and the masses of the gain and loss nodes.
_Region = namedtuple("_Region", "x w wx k p_gain p_loss")


class _AssetGrid:
    """Quadrature nodes of the excess distribution, split at the belief cutoffs;
    each cutoff and node set is built on first use."""

    def __init__(self, asset: Asset, prefs: Preferences | None = None):
        self.asset = asset
        self._built: dict = {}
        if prefs is not None:
            if prefs.gain_loss.kind != LINEAR:
                raise ValueError("portfolio belief machinery requires the linear gain-loss kind")
            self.p_star = cutoff_probability(prefs)
            if not 0.0 < self.p_star < 1.0:
                raise DomainError(f"portfolio beliefs need a cutoff in (0, 1), got {self.p_star}")

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    @property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the whole density."""
        return self._once("nodes", self.asset.excess.quad_nodes)

    def cut(self, alpha: float) -> float:
        """Excess return at the boundary between gain and loss states."""
        p = 1.0 - self.p_star if alpha >= 0 else self.p_star
        return self._once(("cut", alpha >= 0), lambda: self.asset.excess.quantile(p))

    def _beside_cut(self, alpha: float, below: bool):
        lo, hi = self.asset.excess.support
        ends = (lo, self.cut(alpha)) if below else (self.cut(alpha), hi)
        return self._once((below, alpha >= 0), lambda: self.asset.excess.quad_nodes(*ends))

    def loss_nodes(self, alpha: float):
        return self._beside_cut(alpha, below=alpha >= 0)

    def region(self, alpha: float) -> _Region:
        def build():
            (gx, gw), (lx, lw) = self._beside_cut(alpha, below=alpha < 0), self.loss_nodes(alpha)
            x, w = np.concatenate((gx, lx)), np.concatenate((gw, lw))
            return _Region(x, w, w * x, gx.size, float(np.sum(gw)), float(np.sum(lw)))

        return self._once(("region", alpha >= 0), build)


def _utility_values(utility: ConsumptionUtility, r_f: float, alpha: float, x: np.ndarray):
    """Utility at the wealth nodes, or None when wealth leaves the domain."""
    wealth = r_f + alpha * x
    if utility.needs_positive_wealth and (wealth.size == 0 or wealth.min() <= 0):
        return None
    return utility.value_array(wealth)


def _objective_or_ninf(values, weights) -> float:
    if values is None:
        return -math.inf
    return float(weights @ values)


def rational_objective(asset: Asset, utility: ConsumptionUtility = ConsumptionUtility()):
    """Objective expected utility as a callable of the risky share.

    Returns ``-inf`` where wealth leaves the utility domain, so the callable
    is safe to scan over any interval.
    """
    x, w = _AssetGrid(asset).nodes

    def objective(alpha: float) -> float:
        return _objective_or_ninf(_utility_values(utility, asset.r_f, alpha, x), w)

    return objective


def sophisticated_objective(asset: Asset, prefs: Preferences,
                            utility: ConsumptionUtility = ConsumptionUtility()):
    """Loss-overweighted expected utility as a callable of the risky share."""
    grid = _AssetGrid(asset, prefs)
    x, w = grid.nodes
    overweight = prefs.lambda0 - 1.0

    def objective(alpha: float) -> float:
        full = _utility_values(utility, asset.r_f, alpha, x)
        if full is None:
            return -math.inf
        lx, lw = grid.loss_nodes(alpha)
        loss = _utility_values(utility, asset.r_f, alpha, lx)
        return prefs.eta * (float(w @ full) + overweight * float(lw @ loss))

    return objective


def _belief_tilt(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    """Gain/loss re-weighting factors of the density at the share ``alpha``.

    The target subjective expectation is the utility payoff at the cutoff
    quantile; the factors solve the mass and mean constraints on the two
    regions.  Returns (region, wealth, utility at the region's nodes, c_gain,
    c_loss, target).
    """
    r_f, reg = grid.asset.r_f, grid.region(alpha)
    target = utility.value(r_f + alpha * grid.cut(alpha))
    wealth = r_f + alpha * reg.x
    if utility.needs_positive_wealth and wealth.min() <= 0:
        raise DomainError(f"wealth leaves the {utility.kind} utility domain at share {alpha}")
    u, w, k = utility.value_array(wealth), reg.w, reg.k
    factors = _tilt_factors(reg.p_gain, reg.p_loss, float(w[:k] @ u[:k]), float(w[k:] @ u[k:]), target)
    c_g, c_l = (1.0, 1.0) if factors is None else factors
    return reg, wealth, u, c_g, c_l, target


def _frozen_slope(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float) -> float:
    """Slope in ``a`` at ``a = alpha`` of the expected utility under the beliefs tilted at ``alpha``."""
    reg, wealth, _, c_g, c_l, _ = _belief_tilt(grid, utility, alpha)
    m, k = utility.marginal_array(wealth), reg.k
    return c_g * float(reg.wx[:k] @ m[:k]) + c_l * float(reg.wx[k:] @ m[k:])


def naive_fixed_objective(asset: Asset, prefs: Preferences,
                          utility: ConsumptionUtility = ConsumptionUtility(),
                          alpha: float = 0.0):
    """Subjective expected utility with beliefs frozen at the tilt for ``alpha``."""
    return _naive_step_objective(_AssetGrid(asset, prefs), utility, alpha)


def _naive_beliefs(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    """Nodes and subjective weights of the beliefs tilted at the share ``alpha``.

    At ``alpha = 0`` a constant payoff gives no reason to tilt: beliefs stay objective.
    """
    if alpha == 0.0:
        return grid.nodes
    reg, _, _, c_g, c_l, _ = _belief_tilt(grid, utility, alpha)
    return reg.x, np.concatenate((c_g * reg.w[:reg.k], c_l * reg.w[reg.k:]))


def _naive_step_objective(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    x, w = _naive_beliefs(grid, utility, alpha)
    r_f = grid.asset.r_f

    def objective(a: float) -> float:
        return _objective_or_ninf(_utility_values(utility, r_f, a, x), w)

    return objective


def _best_share(x: np.ndarray, w: np.ndarray, r_f: float, utility: ConsumptionUtility,
                lo: float, hi: float) -> tuple[float, int]:
    """Share in [lo, hi] maximizing ``sum w u(r_f + a x)`` for positive weights ``w``.

    The objective is concave, so its maximum is the root of the slope
    ``sum w x u'(r_f + a x)``, or the bound toward which that slope points
    when it has one sign on the whole interval.  Returns (share, slope
    evaluations).
    """
    wx, calls = w * x, 0

    def slope(a: float) -> float:
        nonlocal calls
        calls += 1
        return float(wx @ utility.marginal_array(r_f + a * x))

    s_lo, s_hi = slope(lo), slope(hi)
    if s_lo <= 0:
        return lo, calls
    if s_hi >= 0:
        return hi, calls
    return _brent_root(slope, lo, s_lo, hi, s_hi)[0], calls


def _total_utility_at(grid: _AssetGrid, prefs: Preferences,
                      utility: ConsumptionUtility, alpha: float) -> float:
    """Anticipatory plus gain-loss utility at the canonical beliefs for ``alpha``."""
    r_f = grid.asset.r_f
    if alpha == 0.0:
        return utility.value(r_f)
    reg, _, u, _, _, target = _belief_tilt(grid, utility, alpha)
    gain_term = float(reg.w[:reg.k] @ (u[:reg.k] - target))
    loss_term = float(reg.w[reg.k:] @ (u[reg.k:] - target))
    return target + prefs.eta * (gain_term + prefs.lambda0 * loss_term)


def _sign_regions(lo: float, hi: float) -> list[tuple[float, float]]:
    """The parts ``[lo, 0]`` and ``[0, hi]`` of ``[lo, hi]`` that hold a nonzero share."""
    return ([(lo, min(hi, 0.0))] if lo < 0 else []) + ([(max(lo, 0.0), hi)] if hi > 0 else [])


def rational_alpha(asset: Asset, utility: ConsumptionUtility = ConsumptionUtility(),
                   bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Share maximizing objective expected utility on the given bounds."""
    lo, hi = _feasible_bounds(asset, utility, bounds)
    x, w = _AssetGrid(asset).nodes
    alpha, iters = _best_share(x, w, asset.r_f, utility, lo, hi)
    value = float(w @ utility.value_array(asset.r_f + alpha * x))
    r_ce = None
    if alpha != 0.0:
        r_ce = (utility.inverse(value) - asset.r_f) / alpha
    return PortfolioSolution(alpha=alpha, belief_expectation=value, r_ce=r_ce,
                             value=value, converged=True, iterations=iters)


def naive_alpha(asset: Asset, prefs: Preferences,
                utility: ConsumptionUtility = ConsumptionUtility(),
                bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Fixed point of belief formation given the share and share choice given beliefs.

    With beliefs frozen at the tilt for ``alpha`` expected utility is concave in
    the share, so the best response lies above ``alpha`` exactly where its slope
    at ``alpha``, ``h(alpha)``, is positive: the fixed points are the roots of
    ``h``, the bound ``lo`` where ``h(lo) <= 0``, the bound ``hi`` where
    ``h(hi) >= 0``, and possibly 0.  ``h`` is continuous on each sign region of
    the share but may jump at 0, where the loss region switches sides, so each
    region is sampled on a few evenly spaced shares (an end at 0 moved just
    inside the region) and every sign change is closed by Brent's method.  Each
    candidate is confirmed by one inner maximization: it counts only where
    ``|gap|``, best response minus share, is within ``_FIXED_POINT_TOL`` (a sign
    change that survives the collapse of its bracket is a jump).  Among the
    fixed points the one with the highest anticipatory-plus-gain-loss utility is
    returned (lowest share on ties).  Without one, the sampled share with the
    smallest ``|gap|`` is returned with ``converged=False``.
    """
    lo, hi = _feasible_bounds(asset, utility, bounds)
    grid = _AssetGrid(asset, prefs)
    evaluated: list[float] = []  # shares at which h was evaluated

    @functools.cache
    def gap(alpha: float) -> float:
        x, w = _naive_beliefs(grid, utility, alpha)
        return _best_share(x, w, asset.r_f, utility, lo, hi)[0] - alpha

    def h(alpha: float) -> float:
        evaluated.append(alpha)
        return _frozen_slope(grid, utility, alpha)

    samples = [0.0] if lo <= 0.0 <= hi else []
    candidates = list(samples)
    for a, b in _sign_regions(lo, hi):
        offset = _ZERO_OFFSET * (b - a)
        shares = np.linspace(a + offset if a == 0 else a, b - offset if b == 0 else b, _GAP_SAMPLES).tolist()
        hs = [h(s) for s in shares]
        # at a bound that h points past the gap is 0: a candidate, and no end of a bracket
        hs = [0.0 if (s == lo and v <= 0) or (s == hi and v >= 0) else v for s, v in zip(shares, hs)]
        samples += shares
        candidates += [s for s, v in zip(shares, hs) if v == 0.0]
        candidates += [_brent_root(h, shares[i], hs[i], shares[i + 1], hs[i + 1])[0]
                       for i in range(len(shares) - 1) if hs[i] * hs[i + 1] < 0]

    fixed = sorted({alpha for alpha in candidates if abs(gap(alpha)) <= _FIXED_POINT_TOL})
    if not fixed:
        alpha = min(samples, key=lambda s: abs(gap(s)))
        return _finish_naive(grid, prefs, utility, alpha, len(evaluated), converged=False)

    best_alpha, best_total = None, -math.inf
    for alpha in fixed:
        total = _total_utility_at(grid, prefs, utility, alpha)
        if best_alpha is None or total > best_total + 1e-12:
            best_alpha, best_total = alpha, total
    return _finish_naive(grid, prefs, utility, best_alpha, len(evaluated), converged=True)


def _belief_finish(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    """``belief_expectation`` and ``r_ce`` at the share ``alpha``: the utility of the
    payoff at the belief cutoff, and the sure excess return matching it (None at alpha = 0)."""
    r_f = grid.asset.r_f
    if alpha == 0.0:
        return utility.value(r_f), None
    expectation = utility.value(r_f + alpha * grid.cut(alpha))
    return expectation, (utility.inverse(expectation) - r_f) / alpha


def _finish_naive(grid: _AssetGrid, prefs: Preferences, utility: ConsumptionUtility,
                  alpha: float, iterations: int, converged: bool) -> PortfolioSolution:
    value = _naive_step_objective(grid, utility, alpha)(alpha)
    belief_expectation, r_ce = _belief_finish(grid, utility, alpha)
    return PortfolioSolution(alpha=alpha, belief_expectation=belief_expectation, r_ce=r_ce,
                             value=value, converged=converged, iterations=iterations)


def sophisticated_alpha(asset: Asset, prefs: Preferences,
                        utility: ConsumptionUtility = ConsumptionUtility(),
                        bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Share maximizing the loss-overweighted objective, per sign region.

    On a sign region the objective is ``eta`` times ``sum W u(r_f + a x)`` over
    the objective grid followed by the region's loss nodes, weighted by
    ``lambda - 1``; it is concave there, so each region's maximum is one
    ``_best_share``.  The regions are compared by value (lowest share on ties).
    """
    lo, hi = _feasible_bounds(asset, utility, bounds)
    grid = _AssetGrid(asset, prefs)
    overweight = prefs.lambda0 - 1.0

    best_alpha, best_value, total_calls = None, -math.inf, 0
    for r_lo, r_hi in _sign_regions(lo, hi) or [(lo, hi)]:
        lx, lw = grid.loss_nodes(r_lo)
        x, w = np.concatenate((grid.nodes[0], lx)), np.concatenate((grid.nodes[1], overweight * lw))
        alpha, calls = _best_share(x, w, asset.r_f, utility, r_lo, r_hi)
        total_calls += calls
        value = prefs.eta * float(w @ utility.value_array(asset.r_f + alpha * x))
        if value > best_value + 1e-15 or (
            abs(value - best_value) <= 1e-15 and (best_alpha is None or alpha < best_alpha)
        ):
            best_alpha, best_value = alpha, value

    belief_expectation, r_ce = _belief_finish(grid, utility, best_alpha)
    return PortfolioSolution(alpha=best_alpha, belief_expectation=belief_expectation,
                             r_ce=r_ce, value=best_value, converged=True, iterations=total_calls)


def certainty_equivalent_excess(asset: Asset, alpha: float, prefs: Preferences,
                                utility: ConsumptionUtility = ConsumptionUtility()) -> float:
    """Sure excess return matching the subjective expected utility at ``alpha``."""
    if alpha == 0.0:
        raise DomainError("certainty-equivalent excess return is undefined at alpha = 0")
    return _belief_finish(_AssetGrid(asset, prefs), utility, alpha)[1]
