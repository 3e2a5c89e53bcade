"""One-risky/one-risk-free allocation for rational, naive and sophisticated agents.

Wealth is ``r_f + alpha * R`` where ``R`` is the realized excess return.
Three solvers share the quadrature grid of the excess-return distribution:

* ``rational_alpha``      -- maximizes objective expected utility;
* ``naive_alpha``         -- damped fixed point between the optimal-belief
  tilt of the density (at the current share) and the share maximizing
  subjective expected utility under that tilt;
* ``sophisticated_alpha`` -- maximizes expected utility with the loss
  region (the lower ``1 - p_star`` quantile region of the induced utility
  payoff) overweighted by ``lambda``.

All objectives are concave in ``alpha`` on each sign region, so they are
optimized by golden-section search (the sign-split sophisticated objective
gets a bracketing pass first); bounds are clipped to the range where
wealth stays inside the utility domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beliefs import ConsumptionUtility
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

_GOLDEN_X_TOL = 1e-10
_FIXED_POINT_TOL = 1e-8
_FIXED_POINT_DAMPING = 0.5
_FIXED_POINT_MAX_ITER = 200
_BRACKET_POINTS = 33


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


def _golden_section_max(fn, lo: float, hi: float, xtol: float = _GOLDEN_X_TOL):
    """Maximize a unimodal function on [lo, hi]; returns (x, fn(x), iterations)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    if hi - lo <= xtol:
        mid = 0.5 * (lo + hi)
        return mid, fn(mid), 0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = fn(c), fn(d)
    iters = 0
    while hi - lo > xtol and iters < 300:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = fn(d)
        iters += 1
    x = c if fc >= fd else d
    return x, max(fc, fd), iters


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
    if lo_eff >= hi_eff:
        raise DomainError(
            f"no risky share in {bounds} keeps wealth inside the domain of {utility.kind} utility"
        )
    return lo_eff, hi_eff


class _AssetGrid:
    """Quadrature nodes of the excess distribution, split at the belief cutoffs."""

    def __init__(self, asset: Asset, prefs: Preferences | None = None):
        self.asset = asset
        dist = asset.excess
        self.x, self.w = dist.quad_nodes()
        self.r_minus = self.r_plus = None
        if prefs is not None:
            if prefs.gain_loss.kind != LINEAR:
                raise ValueError("portfolio belief machinery requires the linear gain-loss kind")
            p_star = cutoff_probability(prefs)
            if not 0.0 < p_star < 1.0:
                raise DomainError(f"portfolio beliefs need a cutoff in (0, 1), got {p_star}")
            lo, hi = dist.support
            self.r_minus = dist.quantile(1.0 - p_star)
            self.r_plus = dist.quantile(p_star)
            self.below_minus = dist.quad_nodes(lo, self.r_minus)
            self.above_minus = dist.quad_nodes(self.r_minus, hi)
            self.below_plus = dist.quad_nodes(lo, self.r_plus)
            self.above_plus = dist.quad_nodes(self.r_plus, hi)

    def cut(self, alpha: float) -> float:
        """Excess return at the boundary between gain and loss states."""
        return self.r_minus if alpha >= 0 else self.r_plus

    def loss_nodes(self, alpha: float):
        return self.below_minus if alpha >= 0 else self.above_plus

    def gain_nodes(self, alpha: float):
        return self.above_minus if alpha >= 0 else self.below_plus


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
    grid = _AssetGrid(asset)

    def objective(alpha: float) -> float:
        return _objective_or_ninf(_utility_values(utility, asset.r_f, alpha, grid.x), grid.w)

    return objective


def sophisticated_objective(asset: Asset, prefs: Preferences,
                            utility: ConsumptionUtility = ConsumptionUtility()):
    """Loss-overweighted expected utility as a callable of the risky share."""
    grid = _AssetGrid(asset, prefs)
    overweight = prefs.lambda0 - 1.0

    def objective(alpha: float) -> float:
        full = _utility_values(utility, asset.r_f, alpha, grid.x)
        if full is None:
            return -math.inf
        lx, lw = grid.loss_nodes(alpha)
        loss = _utility_values(utility, asset.r_f, alpha, lx)
        return prefs.eta * (float(grid.w @ full) + overweight * float(lw @ loss))

    return objective


def _belief_tilt(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    """Gain/loss re-weighting factors of the density at the share ``alpha``.

    The target subjective expectation is the utility payoff at the cutoff
    quantile; the factors solve the mass and mean constraints on the two
    regions.  Returns (c_gain, c_loss, target).
    """
    r_f = grid.asset.r_f
    target = utility.value(r_f + alpha * grid.cut(alpha))
    gx, gw = grid.gain_nodes(alpha)
    lx, lw = grid.loss_nodes(alpha)
    gu = _utility_values(utility, r_f, alpha, gx)
    lu = _utility_values(utility, r_f, alpha, lx)
    if gu is None or lu is None:
        raise DomainError(f"wealth leaves the {utility.kind} utility domain at share {alpha}")
    p_g, p_l = float(np.sum(gw)), float(np.sum(lw))
    m_g, m_l = float(gw @ gu), float(lw @ lu)
    det = p_g * m_l - p_l * m_g
    if det == 0:
        return 1.0, 1.0, target
    c_g = (m_l - target * p_l) / det
    c_l = (target * p_g - m_g) / det
    return c_g, c_l, target


def naive_fixed_objective(asset: Asset, prefs: Preferences,
                          utility: ConsumptionUtility = ConsumptionUtility(),
                          alpha: float = 0.0):
    """Subjective expected utility with beliefs frozen at the tilt for ``alpha``."""
    grid = _AssetGrid(asset, prefs)
    return _naive_step_objective(grid, utility, alpha)


def _naive_step_objective(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    if alpha == 0.0:
        # a constant payoff gives no reason to tilt: beliefs stay objective
        def objective(a: float) -> float:
            return _objective_or_ninf(_utility_values(utility, grid.asset.r_f, a, grid.x), grid.w)

        return objective

    c_g, c_l, _ = _belief_tilt(grid, utility, alpha)
    gx, gw = grid.gain_nodes(alpha)
    lx, lw = grid.loss_nodes(alpha)
    r_f = grid.asset.r_f

    def objective(a: float) -> float:
        gu = _utility_values(utility, r_f, a, gx)
        lu = _utility_values(utility, r_f, a, lx)
        if gu is None or lu is None:
            return -math.inf
        return c_g * float(gw @ gu) + c_l * float(lw @ lu)

    return objective


def _total_utility_at(grid: _AssetGrid, prefs: Preferences,
                      utility: ConsumptionUtility, alpha: float) -> float:
    """Anticipatory plus gain-loss utility at the canonical beliefs for ``alpha``."""
    r_f = grid.asset.r_f
    if alpha == 0.0:
        return utility.value(r_f)
    _, _, target = _belief_tilt(grid, utility, alpha)
    gx, gw = grid.gain_nodes(alpha)
    lx, lw = grid.loss_nodes(alpha)
    gu = _utility_values(utility, r_f, alpha, gx)
    lu = _utility_values(utility, r_f, alpha, lx)
    gain_term = float(gw @ (gu - target))
    loss_term = float(lw @ (lu - target))
    return target + prefs.eta * (gain_term + prefs.lambda0 * loss_term)


def _maximize(objective, lo: float, hi: float):
    """Golden-section maximum of a concave objective with endpoint snapping."""
    x_gs, f_gs, iters = _golden_section_max(objective, lo, hi)
    best_x, best_f = x_gs, f_gs
    for x in (lo, hi):
        fx = objective(x)
        if fx > best_f:
            best_x, best_f = x, fx
    return best_x, best_f, iters


def rational_alpha(asset: Asset, utility: ConsumptionUtility = ConsumptionUtility(),
                   bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Share maximizing objective expected utility on the given bounds."""
    lo, hi = _feasible_bounds(asset, utility, bounds)
    objective = rational_objective(asset, utility)
    alpha, value, iters = _maximize(objective, lo, hi)
    r_ce = None
    if alpha != 0.0:
        r_ce = (utility.inverse(value) - asset.r_f) / alpha
    return PortfolioSolution(alpha=alpha, belief_expectation=value, r_ce=r_ce,
                             value=value, converged=True, iterations=iters)


def naive_alpha(asset: Asset, prefs: Preferences,
                utility: ConsumptionUtility = ConsumptionUtility(),
                bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Fixed point of belief formation given the share and share choice given beliefs.

    Damped iteration from several starts; among the fixed points reached the
    one with the highest anticipatory-plus-gain-loss utility is returned
    (lowest share on ties).
    """
    lo, hi = _feasible_bounds(asset, utility, bounds)
    grid = _AssetGrid(asset, prefs)

    alpha_re = rational_alpha(asset, utility, bounds).alpha
    starts = []
    for s in (alpha_re, -alpha_re, lo, hi):
        s = min(max(s, lo), hi)
        if all(abs(s - t) > 1e-9 for t in starts):
            starts.append(s)

    converged_points: list[tuple[float, int]] = []
    fallback: tuple[float, float, int] | None = None  # (gap, alpha, iterations)
    for start in starts:
        alpha = start
        iterations = 0
        gap = math.inf
        for iterations in range(1, _FIXED_POINT_MAX_ITER + 1):
            objective = _naive_step_objective(grid, utility, alpha)
            best, _, _ = _maximize(objective, lo, hi)
            gap = best - alpha
            if abs(gap) <= _FIXED_POINT_TOL:
                break
            alpha = alpha + _FIXED_POINT_DAMPING * gap
        if abs(gap) <= _FIXED_POINT_TOL:
            if all(abs(alpha - other) > 1e-6 for other, _ in converged_points):
                converged_points.append((alpha, iterations))
        elif fallback is None or abs(gap) < fallback[0]:
            fallback = (abs(gap), alpha, iterations)

    if not converged_points:
        alpha, iterations = fallback[1], fallback[2]
        return _finish_naive(grid, prefs, utility, alpha, iterations, converged=False)

    best_alpha, best_iters = converged_points[0]
    best_total = _total_utility_at(grid, prefs, utility, best_alpha)
    for alpha, iters in converged_points[1:]:
        total = _total_utility_at(grid, prefs, utility, alpha)
        if total > best_total + 1e-12 or (abs(total - best_total) <= 1e-12 and alpha < best_alpha):
            best_alpha, best_iters, best_total = alpha, iters, total
    return _finish_naive(grid, prefs, utility, best_alpha, best_iters, converged=True)


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
    objective = _naive_step_objective(grid, utility, alpha)
    value = objective(alpha)
    belief_expectation, r_ce = _belief_finish(grid, utility, alpha)
    return PortfolioSolution(alpha=alpha, belief_expectation=belief_expectation, r_ce=r_ce,
                             value=value, converged=converged, iterations=iterations)


def sophisticated_alpha(asset: Asset, prefs: Preferences,
                        utility: ConsumptionUtility = ConsumptionUtility(),
                        bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Share maximizing the loss-overweighted objective, per sign region."""
    lo, hi = _feasible_bounds(asset, utility, bounds)
    objective = sophisticated_objective(asset, prefs, utility)
    grid = _AssetGrid(asset, prefs)

    regions = []
    if lo < 0:
        regions.append((lo, min(hi, 0.0)))
    if hi > 0:
        regions.append((max(lo, 0.0), hi))
    if not regions:
        regions.append((lo, hi))

    best_alpha, best_value, total_iters = None, -math.inf, 0
    for r_lo, r_hi in regions:
        xs = np.linspace(r_lo, r_hi, _BRACKET_POINTS)
        vals = [objective(x) for x in xs]
        i = int(np.argmax(vals))
        b_lo = xs[max(i - 1, 0)]
        b_hi = xs[min(i + 1, len(xs) - 1)]
        alpha, value, iters = _maximize(objective, b_lo, b_hi)
        total_iters += iters
        for cand_alpha, cand_value in ((alpha, value), (r_lo, vals[0]), (r_hi, vals[-1])):
            if cand_value > best_value + 1e-15 or (
                abs(cand_value - best_value) <= 1e-15 and (best_alpha is None or cand_alpha < best_alpha)
            ):
                best_alpha, best_value = cand_alpha, cand_value

    belief_expectation, r_ce = _belief_finish(grid, utility, best_alpha)
    return PortfolioSolution(alpha=best_alpha, belief_expectation=belief_expectation,
                             r_ce=r_ce, value=best_value, converged=True, iterations=total_iters)


def certainty_equivalent_excess(asset: Asset, alpha: float, prefs: Preferences,
                                utility: ConsumptionUtility = ConsumptionUtility()) -> float:
    """Sure excess return matching the subjective expected utility at ``alpha``."""
    if alpha == 0.0:
        raise DomainError("certainty-equivalent excess return is undefined at alpha = 0")
    return _belief_finish(_AssetGrid(asset, prefs), utility, alpha)[1]
