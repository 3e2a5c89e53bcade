"""One-risky/one-risk-free allocation for rational, naive and sophisticated agents.

Wealth is ``r_f + alpha * R`` where ``R`` is the realized excess return.  Each
agent maximizes ``sum W u(r_f + a x)`` over quadrature nodes ``x`` of the
excess distribution with positive weights ``W``:

* ``rational_alpha``      -- the objective grid;
* ``sophisticated_alpha`` -- on each sign region of the share, ``eta`` times the
  sum over the objective grid followed by the region's loss nodes (beyond the
  belief cutoff) weighted by ``lambda - 1``;
* ``naive_alpha``         -- a fixed point: the share is the maximizer under the
  beliefs tilted at that share.  On each sign region, a bracketed root of the
  slope at ``a = alpha`` of utility under the beliefs frozen at ``alpha``,
  confirmed against the gap ``argmax_a obj_alpha(a) - alpha``.

Such a sum is concave, so ``_best_share`` finds its maximum as the Brent root
of the first-order condition, or the bound its slope points to.  Bounds are
clipped to the range where wealth stays inside the utility domain.  A biased
agent's ``r_ce`` is its belief cutoff, a quantile of the excess return.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from ._roots import _brent_root
from .beliefs import ConsumptionUtility, _tilt_factors
from .distributions import ContinuousDistribution
from .errors import DomainError, _fields, _finite
from .preferences import Preferences, _interior_cutoff

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

    @classmethod
    def from_dict(cls, obj: dict) -> "Asset":
        r_f, excess = _fields("asset", obj, "r_f", "excess")
        return cls(r_f, ContinuousDistribution.from_dict(excess))


@dataclass(frozen=True)
class PortfolioSolution:
    """Solved risky share with the quantities used to interpret it.

    ``belief_expectation`` is the expectation of consumption utility under
    the agent's operative beliefs at the solution; ``r_ce`` the excess return
    whose sure receipt matches it (None at ``alpha = 0``): the belief cutoff for
    the biased agents, ``(u^-1(value) - r_f) / alpha`` for the rational one.
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
        return asdict(self)


def _feasible_bounds(asset: Asset, utility: ConsumptionUtility, bounds) -> tuple[float, float]:
    """Bounds clipped to where wealth stays in the utility domain on the support."""
    lo_b, hi_b = _finite("bounds.lo", bounds[0]), _finite("bounds.hi", bounds[1])
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
            self.p_star = _interior_cutoff(prefs)
            self.overweight = prefs.lambda0 - 1.0

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

    def region(self, alpha: float) -> _Region:
        def build():
            (gx, gw), (lx, lw) = self._beside_cut(alpha, alpha < 0), self._beside_cut(alpha, alpha >= 0)
            x, w = np.concatenate((gx, lx)), np.concatenate((gw, lw))
            return _Region(x, w, w * x, gx.size, float(np.sum(gw)), float(np.sum(lw)))

        return self._once(("region", alpha >= 0), build)

    def overweighted(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """The sophisticated agent's nodes and weights on the sign region of ``alpha``:
        the whole grid followed by the region's loss nodes, weighted ``lambda - 1``."""
        def build():
            (x, w), (lx, lw) = self.nodes, self._beside_cut(alpha, below=alpha >= 0)
            return np.concatenate((x, lx)), np.concatenate((w, self.overweight * lw))

        return self._once(("overweighted", alpha >= 0), build)


def _expected_utility(utility: ConsumptionUtility, r_f: float, a: float, x: np.ndarray,
                      w: np.ndarray) -> float:
    """``sum w u(r_f + a x)``, or ``-inf`` when wealth leaves the utility domain."""
    wealth = r_f + a * x
    if utility.needs_positive_wealth and wealth.min() <= 0:
        return -math.inf
    return float(w @ utility.value_array(wealth))


def rational_objective(asset: Asset, utility: ConsumptionUtility = ConsumptionUtility()):
    """Objective expected utility as a callable of the risky share.

    Returns ``-inf`` where wealth leaves the utility domain, so the callable
    is safe to scan over any interval.
    """
    x, w = _AssetGrid(asset).nodes

    def objective(alpha: float) -> float:
        return _expected_utility(utility, asset.r_f, alpha, x, w)

    return objective


def sophisticated_objective(asset: Asset, prefs: Preferences,
                            utility: ConsumptionUtility = ConsumptionUtility()):
    """Loss-overweighted expected utility as a callable of the risky share, over the node set
    ``sophisticated_alpha`` maximizes on the share's sign region; ``-inf`` off the domain."""
    grid = _AssetGrid(asset, prefs)
    return lambda alpha: prefs.eta * _expected_utility(utility, asset.r_f, alpha, *grid.overweighted(alpha))


def _belief_tilt(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    """Gain/loss re-weighting factors of the density at the share ``alpha``.

    The target subjective expectation is the utility payoff at the cutoff
    quantile; the factors solve the mass and mean constraints on the two
    regions.  Returns (region, wealth, utility at the region's nodes, c_gain,
    c_loss, target), built once per share on ``grid``.
    """
    def build():
        r_f, reg = grid.asset.r_f, grid.region(alpha)
        target = utility.value(r_f + alpha * grid.cut(alpha))
        wealth = r_f + alpha * reg.x
        if utility.needs_positive_wealth and wealth.min() <= 0:
            raise DomainError(f"wealth leaves the {utility.kind} utility domain at share {alpha}")
        u, w, k = utility.value_array(wealth), reg.w, reg.k
        factors = _tilt_factors(reg.p_gain, reg.p_loss, float(w[:k] @ u[:k]), float(w[k:] @ u[k:]), target)
        c_g, c_l = (1.0, 1.0) if factors is None else factors
        return reg, wealth, u, c_g, c_l, target

    return grid._once(("tilt", utility, alpha), build)


def _frozen_slope(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float) -> float:
    """Slope in ``a`` at ``a = alpha`` of the expected utility under the beliefs tilted at ``alpha``."""
    reg, wealth, _, c_g, c_l, _ = _belief_tilt(grid, utility, alpha)
    m, k = utility.marginal_array(wealth), reg.k
    return c_g * float(reg.wx[:k] @ m[:k]) + c_l * float(reg.wx[k:] @ m[k:])


def naive_fixed_objective(asset: Asset, prefs: Preferences,
                          utility: ConsumptionUtility = ConsumptionUtility(),
                          alpha: float = 0.0):
    """Subjective expected utility with beliefs frozen at the tilt for ``alpha``."""
    x, w = _naive_beliefs(_AssetGrid(asset, prefs), utility, _finite("alpha", alpha))
    return lambda a: _expected_utility(utility, asset.r_f, a, x, w)


def _naive_beliefs(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    """Nodes and subjective weights of the beliefs tilted at the share ``alpha``.

    At ``alpha = 0`` a constant payoff gives no reason to tilt: beliefs stay objective.
    """
    if alpha == 0.0:
        return grid.nodes
    reg, _, _, c_g, c_l, _ = _belief_tilt(grid, utility, alpha)
    return reg.x, np.concatenate((c_g * reg.w[:reg.k], c_l * reg.w[reg.k:]))


def _slope(x: np.ndarray, w: np.ndarray, r_f: float, utility: ConsumptionUtility):
    """The slope ``a -> sum w x u'(r_f + a x)`` of ``sum w u(r_f + a x)``."""
    wx = w * x
    return lambda a: float(wx @ utility.marginal_array(r_f + a * x))


def _best_share(x: np.ndarray, w: np.ndarray, r_f: float, utility: ConsumptionUtility,
                lo: float, hi: float) -> tuple[float, int]:
    """Share in [lo, hi] maximizing ``sum w u(r_f + a x)`` for positive weights ``w``.

    The objective is concave, so its maximum is the root of the slope
    ``sum w x u'(r_f + a x)``, or the bound toward which that slope points
    when it has one sign on the whole interval.  Returns (share, slope
    evaluations).
    """
    calls, slope_at = 0, _slope(x, w, r_f, utility)

    def slope(a: float) -> float:
        nonlocal calls
        calls += 1
        return slope_at(a)

    s_lo, s_hi = slope(lo), slope(hi)
    if s_lo <= 0:
        return lo, calls
    if s_hi >= 0:
        return hi, calls
    return _brent_root(slope, lo, s_lo, hi, s_hi)[0], calls


def _best_share_near(x: np.ndarray, w: np.ndarray, r_f: float, utility: ConsumptionUtility,
                     lo: float, hi: float, share: float, tol: float) -> bool:
    """Whether ``_best_share(x, w, r_f, utility, lo, hi)`` lies within ``tol`` of ``share``,
    by its rule but from at most four slope signs: the slope falls in the share, so an
    interior best share is that near where the slope changes sign from ``share - tol``
    to ``share + tol`` (each clipped to the bounds)."""
    slope = _slope(x, w, r_f, utility)
    if slope(lo) <= 0:
        return abs(lo - share) <= tol
    if slope(hi) >= 0:
        return abs(hi - share) <= tol
    return slope(max(share - tol, lo)) >= 0 >= slope(min(share + tol, hi))


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


def _highest(candidates, tie: float):
    """The ``(share, value)`` of highest value among ``candidates`` in ascending share order,
    a later one winning only by more than ``tie`` (lowest share on ties); None if empty."""
    best = None
    for share, value in candidates:
        if best is None or value > best[1] + tie:
            best = (share, value)
    return best


def _concave_solve(r_f: float, utility: ConsumptionUtility, regions, nodes, scale: float = 1.0):
    """Best share over ``regions``, in ascending order: on each region ``(lo, hi)`` the
    ``_best_share`` of ``scale * sum W u(r_f + a x)`` over the nodes ``nodes(lo)``, the
    regions compared by ``_highest``.  Returns (share, value, slope evaluations)."""
    candidates, calls = [], 0
    for lo, hi in regions:
        x, w = nodes(lo)
        alpha, n = _best_share(x, w, r_f, utility, lo, hi)
        candidates.append((alpha, scale * _expected_utility(utility, r_f, alpha, x, w)))
        calls += n
    return (*_highest(candidates, 1e-15), calls)


def rational_alpha(asset: Asset, utility: ConsumptionUtility = ConsumptionUtility(),
                   bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Share maximizing objective expected utility on the given bounds."""
    lo, hi = _feasible_bounds(asset, utility, bounds)
    grid = _AssetGrid(asset)
    alpha, value, iters = _concave_solve(asset.r_f, utility, [(lo, hi)], lambda _: grid.nodes)
    r_ce = None if alpha == 0.0 else (utility.inverse(value) - asset.r_f) / alpha
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
    inside the region) and every sign change is closed by Brent's method.  A
    candidate ``c`` counts only where ``|gap|``, best response minus share, is
    within ``_FIXED_POINT_TOL`` (a sign change that survives the collapse of its
    bracket is a jump); the frozen objective is concave, so that is read from
    the slope signs at the bounds and at ``c - tol`` and ``c + tol``, with no inner
    root-find.  Among the fixed points the one with the highest
    anticipatory-plus-gain-loss utility is returned (lowest share on ties).
    Without one, the sampled share with the smallest ``|gap|`` (one inner
    maximization per sample) is returned with ``converged=False``.  The belief
    tilt at each share is computed once per solve.
    """
    lo, hi = _feasible_bounds(asset, utility, bounds)
    grid = _AssetGrid(asset, prefs)
    evaluated: list[float] = []  # shares at which h was evaluated

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

    fixed = sorted(alpha for alpha in set(candidates)
                   if _best_share_near(*_naive_beliefs(grid, utility, alpha), asset.r_f, utility, lo, hi,
                                       alpha, _FIXED_POINT_TOL))
    best = _highest([(alpha, _total_utility_at(grid, prefs, utility, alpha)) for alpha in fixed], 1e-12)
    best_alpha = min(samples, key=lambda s: abs(gap(s))) if best is None else best[0]
    x, w = _naive_beliefs(grid, utility, best_alpha)
    return PortfolioSolution(best_alpha, *_belief_finish(grid, utility, best_alpha),
                             _expected_utility(utility, asset.r_f, best_alpha, x, w),
                             converged=bool(fixed), iterations=len(evaluated))


def _belief_finish(grid: _AssetGrid, utility: ConsumptionUtility, alpha: float):
    """``belief_expectation`` and ``r_ce`` at the share ``alpha``: the utility of the payoff
    at the belief cutoff, and the cutoff (None at alpha = 0), which is in closed form the
    ``r`` solving ``u(r_f + alpha r) = u(r_f + alpha cut)`` for a strictly increasing ``u``."""
    r_f = grid.asset.r_f
    if alpha == 0.0:
        return utility.value(r_f), None
    cut = grid.cut(alpha)
    return utility.value(r_f + alpha * cut), cut


def sophisticated_alpha(asset: Asset, prefs: Preferences,
                        utility: ConsumptionUtility = ConsumptionUtility(),
                        bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Share maximizing the loss-overweighted objective, per sign region.

    On a sign region ``sophisticated_objective`` is ``eta`` times ``sum W u(r_f + a x)``
    over the objective grid followed by the region's loss nodes, weighted by
    ``lambda - 1``; it is concave there, so each region's maximum is one
    ``_best_share``.  The regions are compared by value (lowest share on ties).
    """
    lo, hi = _feasible_bounds(asset, utility, bounds)
    grid = _AssetGrid(asset, prefs)
    alpha, value, iters = _concave_solve(asset.r_f, utility, _sign_regions(lo, hi) or [(lo, hi)],
                                         grid.overweighted, prefs.eta)
    return PortfolioSolution(alpha, *_belief_finish(grid, utility, alpha), value,
                             converged=True, iterations=iters)


def certainty_equivalent_excess(asset: Asset, alpha: float, prefs: Preferences,
                                utility: ConsumptionUtility = ConsumptionUtility()) -> float:
    """Sure excess return matching the subjective expected utility at ``alpha``: the belief
    cutoff, the ``1 - p_star`` quantile of the excess return (the ``p_star`` one for ``alpha < 0``)."""
    alpha = _finite("alpha", alpha)
    if alpha == 0.0:
        raise DomainError("certainty-equivalent excess return is undefined at alpha = 0")
    return _belief_finish(_AssetGrid(asset, prefs), utility, alpha)[1]
