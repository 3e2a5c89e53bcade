"""One-risky/one-risk-free allocation for rational, naive and sophisticated agents.

Wealth is ``r_f + alpha * R`` where ``R`` is the realized excess return.  Each
agent maximizes ``sum W u(r_f + a x)`` over quadrature nodes ``x`` of the
excess distribution with positive weights ``W``:

* ``rational_alpha``      -- the objective grid;
* ``sophisticated_alpha`` -- on each sign region of the share, ``eta`` times the
  sum over the region's nodes with the loss nodes (beyond the belief cutoff)
  weighted by ``lambda``.  A region ending at 0 whose slope there points into 0
  has its best share at 0 and is not searched;
* ``naive_alpha``         -- a fixed point: the share is the maximizer under the
  beliefs tilted at that share.  On each sign region, a bracketed root of the
  slope at ``a = alpha`` of utility under the beliefs frozen at ``alpha``, or a
  bound that slope points past.  A region ending at 0 whose belief cutoff has
  the sign opposite to its shares holds none, and is not searched.  Where no
  region holds one and 0 is not a fixed point either, the agent does not trade.

Both biased agents read one node set per sign region: one split of the panel set
at its belief cutoff, whose gain and loss weights each agent scales by its own
pair of factors (``_AssetGrid.weighted``).  Both read a region's slope at 0 from
closed forms with no node (``_slope_at_zero``): ``u'(r_f)`` times the region's
first moment under the agent's weights at 0.

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
from .distributions import ContinuousDistribution, partial_expectation
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

_GAP_SAMPLES = 7  # evenly spaced shares per sign region at which the naive solver samples h


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
    latter; a region skipped for its closed-form slope at 0 adds none), and the
    distinct nonzero shares at which the naive agent evaluated
    ``h``, the slope of the frozen-belief objective at the share itself: the
    sampled shares, batched or not, and Brent's iterates; 0 where no sign region
    is searched.  ``value`` is the agent's objective at ``alpha``, term for term:
    for the naive agent under the beliefs frozen at ``alpha``, as
    ``naive_fixed_objective`` computes it.  ``converged=False`` is the naive
    agent's no-trade verdict: no fixed point but the generalised one at
    ``alpha = 0``, where ``value`` reads the objective beliefs.
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
    # each finite bound moves in by 1e-10 of its size (1e-10 at zero), so a share on it
    # scales inversely with the excess return
    lo_eff = max(lo_b, lower + 1e-10 * (abs(lower) or 1.0) if math.isfinite(lower) else lower)
    hi_eff = min(hi_b, upper - 1e-10 * (abs(upper) or 1.0) if math.isfinite(upper) else upper)
    if lo_eff > hi_eff:
        raise DomainError(
            f"no risky share in {bounds} keeps wealth inside the domain of {utility.kind} utility"
        )
    return lo_eff, hi_eff


# A sign region's gain-then-loss nodes, the index where the loss nodes start, the gain and
# loss weights, their products with the nodes, and the masses of the gain and loss nodes.
_Region = namedtuple("_Region", "x k w_gain w_loss wx_gain wx_loss p_gain p_loss")
# The beliefs tilted at one share: the gain and loss factors, the target expectation, the
# utility moments of the gain and loss nodes, and h, the frozen-belief slope at the share.
_Tilt = namedtuple("_Tilt", "c_g c_l target m_g m_l h")


class _AssetGrid:
    """Quadrature nodes of the excess distribution, split at the belief cutoffs, and the
    naive agent's belief tilts under ``utility``; each is built on first use."""

    def __init__(self, asset: Asset, prefs: Preferences | None = None,
                 utility: ConsumptionUtility | None = None):
        self.asset = asset
        self.utility = utility
        self._built: dict = {}
        self._tilts: dict[float, _Tilt] = {}
        if prefs is not None:
            self.p_star = _interior_cutoff(prefs)

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

    def region(self, alpha: float) -> _Region:
        """The gain and loss nodes on the sign region of ``alpha``: one split of the panel
        set at the cutoff."""
        def build():
            below, above = self.asset.excess._split(self.cut(alpha))
            (gx, gw), (lx, lw) = (below, above) if alpha < 0 else (above, below)
            return _Region(np.concatenate((gx, lx)), gx.size, gw, lw, gw * gx, lw * lx,
                           float(gw.sum()), float(lw.sum()))

        return self._once(("region", alpha >= 0), build)

    def tilt(self, alpha: float) -> _Tilt:
        """The tilt and ``h`` at the nonzero share ``alpha``, from one-share kernel calls,
        each computed once."""
        tilt = self._tilts.get(alpha)
        if tilt is None:
            tilt = self._tilts[alpha] = _tilt_kernel(self, alpha)
        return tilt

    def weighted(self, alpha: float, c_g: float, c_l: float) -> tuple[np.ndarray, np.ndarray]:
        """The nodes of the sign region of ``alpha``, with its gain weights scaled by ``c_g``
        and its loss weights by ``c_l``."""
        reg = self.region(alpha)
        return reg.x, np.concatenate((c_g * reg.w_gain, c_l * reg.w_loss))


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


def _overweighted(grid: _AssetGrid, lambda0: float):
    """The sophisticated agent's nodes and weights on the sign region of a share: its loss
    weights times ``lambda``, built once per sign."""
    return lambda alpha: grid._once(("overweighted", alpha >= 0), lambda: grid.weighted(alpha, 1.0, lambda0))


def sophisticated_objective(asset: Asset, prefs: Preferences,
                            utility: ConsumptionUtility = ConsumptionUtility()):
    """Loss-overweighted expected utility as a callable of the risky share: ``eta`` times
    ``sum W u(r_f + alpha x)`` over the nodes of the share's sign region, loss weights
    times ``lambda``, as ``sophisticated_alpha`` maximizes it; ``-inf`` off the domain."""
    nodes = _overweighted(_AssetGrid(asset, prefs), prefs.lambda0)
    return lambda alpha: prefs.eta * _expected_utility(utility, asset.r_f, alpha, *nodes(alpha))


def _tilt_kernel(grid: _AssetGrid, shares):
    """Belief tilt and ``h`` at nonzero ``shares`` of one sign region, in one pass over the
    region's nodes: a float gives one ``_Tilt``, a 1-D array a list, one per row of one
    wealth matrix.

    The target subjective expectation is the utility payoff at the cutoff quantile; the
    factors solve the mass and mean constraints on the gain and loss regions; ``h`` is the
    slope in ``a``, at ``a = alpha``, of expected utility under the beliefs tilted at
    ``alpha``.  A row of a matrix product may round unlike the one-share product, so only
    one-share tilts are memoised (``_AssetGrid.tilt``) and read for beliefs and values;
    batched ones give signs and brackets.
    """
    one = isinstance(shares, float)
    alpha = shares if one else float(shares[0])
    utility, r_f, reg, cut = grid.utility, grid.asset.r_f, grid.region(alpha), grid.cut(alpha)
    wealth = r_f + (shares if one else shares[:, None]) * reg.x
    if utility.needs_positive_wealth and wealth.min() <= 0:
        bad = alpha if one else float(shares[np.argmin(wealth.min(axis=1))])
        raise DomainError(f"wealth leaves the {utility.kind} utility domain at share {bad}")
    u, m, k = utility.value_array(wealth), utility.marginal_array(wealth), reg.k
    sums = (u[..., :k] @ reg.w_gain, u[..., k:] @ reg.w_loss, m[..., :k] @ reg.wx_gain, m[..., k:] @ reg.wx_loss)
    if one:
        return _tilt_row(reg, utility.value(r_f + alpha * cut), *map(float, sums))
    return [_tilt_row(reg, utility.value(r_f + a * cut), *row)
            for a, row in zip(shares.tolist(), zip(*(s.tolist() for s in sums)))]


def _tilt_row(reg: _Region, target: float, m_g: float, m_l: float, s_g: float, s_l: float) -> _Tilt:
    """The tilt at one share from its target and its four sums over the gain and loss nodes:
    the utility moments ``m`` and the untilted slopes ``s``."""
    factors = _tilt_factors(reg.p_gain, reg.p_loss, m_g, m_l, target)
    c_g, c_l = (1.0, 1.0) if factors is None else factors
    return _Tilt(c_g, c_l, target, m_g, m_l, c_g * s_g + c_l * s_l)


def naive_fixed_objective(asset: Asset, prefs: Preferences,
                          utility: ConsumptionUtility = ConsumptionUtility(),
                          alpha: float = 0.0):
    """Subjective expected utility with beliefs frozen at the tilt for ``alpha``."""
    x, w = _naive_beliefs(_AssetGrid(asset, prefs, utility), _finite("alpha", alpha))
    return lambda a: _expected_utility(utility, asset.r_f, a, x, w)


def _naive_beliefs(grid: _AssetGrid, alpha: float):
    """Nodes and subjective weights of the beliefs tilted at the share ``alpha``.

    At ``alpha = 0`` a constant payoff gives no reason to tilt: beliefs stay objective.
    """
    if alpha == 0.0:
        return grid.nodes
    tilt = grid.tilt(alpha)
    return grid.weighted(alpha, tilt.c_g, tilt.c_l)


def _best_share(x: np.ndarray, w: np.ndarray, r_f: float, utility: ConsumptionUtility,
                lo: float, hi: float) -> tuple[float, int]:
    """Share in [lo, hi] maximizing ``sum w u(r_f + a x)`` for positive weights ``w``.

    The objective is concave, so its maximum is the root of the slope
    ``sum w x u'(r_f + a x)``, or the bound toward which that slope points
    when it has one sign on the whole interval.  Returns (share, slope
    evaluations).
    """
    calls, wx = 0, w * x

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


def _total_utility_at(grid: _AssetGrid, prefs: Preferences, alpha: float) -> float:
    """Anticipatory plus gain-loss utility at the canonical beliefs for ``alpha``."""
    if alpha == 0.0:
        return grid.utility.value(grid.asset.r_f)
    reg, t = grid.region(alpha), grid.tilt(alpha)
    gain_term, loss_term = t.m_g - t.target * reg.p_gain, t.m_l - t.target * reg.p_loss
    return t.target + prefs.eta * (gain_term + prefs.lambda0 * loss_term)


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


def _slope_at_zero(grid: _AssetGrid, end: float, lambda0: float | None = None) -> float:
    """Slope at 0 of ``sum W u(r_f + a x)`` under a biased agent's weights on the sign region
    of ``end`` (0+ for ``end >= 0``), from closed forms with no node: ``u'(r_f)`` times the
    region's first moment under those weights at 0.  For the naive agent (no ``lambda0``)
    the beliefs tilted at ``a`` make that moment the belief cutoff ``cut(±)`` as ``a`` tends
    to 0.  For the sophisticated agent, whose loss weights are ``lambda0`` times the
    objective ones, it is ``E x + (lambda0 - 1)`` times the loss moment: ``PE(cut(+))``
    below ``cut(+)``, or ``E x - PE(cut(-))`` above ``cut(-)``, where ``PE`` is
    ``partial_expectation``."""
    moment = grid.cut(end)
    if lambda0 is not None:
        dist = grid.asset.excess
        mean, below = dist.mean(), partial_expectation(dist, moment)
        moment = mean + (lambda0 - 1.0) * (below if end >= 0 else mean - below)
    return float(grid.utility.marginal_array(np.array(grid.asset.r_f))) * moment


def _concave_solve(r_f: float, utility: ConsumptionUtility, regions, nodes, scale: float = 1.0,
                   at_zero=None):
    """Best share over ``regions``, in ascending order: on each region ``(lo, hi)`` the
    ``_best_share`` of ``scale * sum W u(r_f + a x)`` over the nodes ``nodes(lo)``, valued
    over ``nodes(share)``, the regions compared by ``_highest``.  Given ``at_zero(end)``, the
    slope at 0 toward ``end``, a region ending at 0 whose slope there points into 0 has its
    best share at 0, by concavity, and is not searched.  Returns (share, value, slope
    evaluations)."""
    candidates, calls = [], 0
    for lo, hi in regions:
        if at_zero is not None and 0.0 in (lo, hi) and at_zero(lo + hi) * (lo + hi) <= 0:
            alpha, n = 0.0, 0
        else:
            alpha, n = _best_share(*nodes(lo), r_f, utility, lo, hi)
        # either region may reach 0, whose value reads the alpha >= 0 nodes
        candidates.append((alpha, scale * _expected_utility(utility, r_f, alpha, *nodes(alpha))))
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


def _sampled_slopes(grid: _AssetGrid, a: float, b: float):
    """``h`` at ``_GAP_SAMPLES`` evenly spaced shares of the sign region ``[a, b]``, the
    nonzero ones in one ``_tilt_kernel`` pass; an end at 0 reads the limit
    ``h(0±) = u'(r_f) cut`` (``_slope_at_zero``).  None where that limit points into 0:
    concavity under the beliefs tilted at ``alpha`` gives ``alpha h(alpha) <= u(r_f + alpha
    cut) - u(r_f)``, so ``h`` keeps that sign over the whole region, which then holds no
    fixed point."""
    shares = np.linspace(a, b, _GAP_SAMPLES)
    if 0.0 not in (a, b):
        return shares.tolist(), [tilt.h for tilt in _tilt_kernel(grid, shares)]
    end = a + b  # the region's nonzero end
    limit = _slope_at_zero(grid, end)
    if limit * end <= 0:
        return None
    hs = [tilt.h for tilt in _tilt_kernel(grid, shares[1:] if a == 0 else shares[:-1])]
    return shares.tolist(), [limit, *hs] if a == 0 else [*hs, limit]


def naive_alpha(asset: Asset, prefs: Preferences,
                utility: ConsumptionUtility = ConsumptionUtility(),
                bounds=DEFAULT_BOUNDS) -> PortfolioSolution:
    """Fixed point of belief formation given the share and share choice given beliefs.

    With beliefs frozen at the tilt for ``alpha`` expected utility is concave in
    the share, so the best response lies above ``alpha`` exactly where its slope
    at ``alpha``, ``h(alpha)``, is positive: the fixed points are the roots of
    ``h``, the bound ``lo`` where ``h(lo) <= 0``, the bound ``hi`` where
    ``h(hi) >= 0``, and possibly 0.  ``h`` is continuous on each sign region of
    the share and tends to ``u'(r_f) cut`` at 0, ``cut`` being the region's
    belief cutoff; it may jump at 0, where the loss region switches sides.  A
    region ending at 0 whose limit points into 0 is skipped (``_sampled_slopes``);
    each other region is sampled on a few evenly spaced shares, all in one pass of
    ``_tilt_kernel`` over one wealth matrix, and every sign change is closed by
    Brent's method.  Each root, and each bound ``h`` points past, is a fixed
    point.  At 0 the beliefs are objective, so 0 is one where the objective grid's
    best share is exactly 0.  Among the fixed points the one with the highest
    anticipatory-plus-gain-loss utility is returned (lowest share on ties).
    Without one -- every region skipped, which on both sign regions means
    ``q(1 - p_star) <= 0 <= q(p_star)``, and 0 no fixed point -- the agent does not
    trade: ``alpha = 0`` with ``converged=False``.  The batched samples only
    decide signs and brackets; Brent's iterates, the candidates and the returned
    share read one-share tilts, each computed once per solve, so ``value`` is exactly
    ``naive_fixed_objective(..., alpha)(alpha)``.
    """
    lo, hi = _feasible_bounds(asset, utility, bounds)
    grid = _AssetGrid(asset, prefs, utility)
    evaluated: set[float] = set()  # shares at which h was evaluated

    def h(alpha: float) -> float:
        evaluated.add(alpha)
        return grid.tilt(alpha).h

    zero = lo <= 0.0 <= hi and _best_share(*grid.nodes, asset.r_f, utility, lo, hi)[0] == 0.0
    candidates = [0.0] if zero else []
    for a, b in _sign_regions(lo, hi):
        sampled = _sampled_slopes(grid, a, b)
        if sampled is None:
            continue
        shares, hs = sampled
        evaluated.update(s for s in shares if s != 0.0)
        # at a bound that h points past the gap is 0: a candidate, and no end of a bracket
        hs = [0.0 if (s == lo and v <= 0) or (s == hi and v >= 0) else v for s, v in zip(shares, hs)]
        candidates += [s for s, v in zip(shares, hs) if v == 0.0]
        candidates += [_brent_root(h, shares[i], hs[i], shares[i + 1], hs[i + 1])[0]
                       for i in range(len(shares) - 1) if hs[i] * hs[i + 1] < 0]

    fixed = sorted(set(candidates))
    best = _highest([(alpha, _total_utility_at(grid, prefs, alpha)) for alpha in fixed], 1e-12)
    best_alpha = 0.0 if best is None else best[0]
    x, w = _naive_beliefs(grid, best_alpha)
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
    over the region's gain nodes at their objective weights and its loss nodes at
    ``lambda`` times theirs, which is the objective grid plus the loss nodes
    weighted ``lambda - 1``; it is concave there, so each region's maximum is one
    ``_best_share``.  Its slope at 0 is ``eta u'(r_f)`` times ``s(0+) = E x + (lambda - 1)
    PE(q(1 - p_star))`` or ``s(0-) = E x + (lambda - 1) (E x - PE(q(p_star)))``, ``PE`` the
    partial expectation (``_slope_at_zero``); a region ending at 0 where it points into 0
    has its maximum at 0 and is not searched, so on bounds around 0 the investor abstains
    iff ``s(0+) <= 0 <= s(0-)``.  The value at 0 still reads the ``alpha >= 0`` nodes.  The
    regions are compared by value (lowest share on ties).
    """
    lo, hi = _feasible_bounds(asset, utility, bounds)
    grid = _AssetGrid(asset, prefs, utility)
    alpha, value, iters = _concave_solve(asset.r_f, utility, _sign_regions(lo, hi) or [(lo, hi)],
                                         _overweighted(grid, prefs.lambda0), prefs.eta,
                                         lambda end: _slope_at_zero(grid, end, prefs.lambda0))
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
