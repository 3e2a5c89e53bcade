"""Discrete lotteries and exact solvers for optimal subjective beliefs.

The objective being maximized over subjective probability vectors ``q`` is

    U(q) = sum_s q_s u_s  +  eta * sum_s p_s mu(u_s - sum_s q_s u_s)

where ``u_s`` are consumption utilities of the payoffs, ``p_s`` the
objective probabilities and ``mu`` the gain-loss function.  U depends on
``q`` only through the subjective expectation ``E = sum_s q_s u_s``, which
turns the solve into a one-dimensional problem on ``[u_1, u_S]``:

* linear gain-loss: U is concave piecewise linear in E with kinks at the
  payoff utilities, and the slope sign on each segment is the sign of the
  gain mass on that segment minus the cutoff probability;
* general constant-marginal gain-loss: dU/dE has the opposite sign of a
  residual that rises continuously from ``-(1 - eta*beta)/(eta*beta)`` as
  loss-side multipliers grow, so the optimum is its single Brent root, or
  ``u_S`` when the residual stays nonpositive.

Because only the optimal expectation is pinned down, a canonical belief
vector is reconstructed from it by proportionally re-weighting the gain
and loss regions of the objective probabilities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import itertools
import math

from ._roots import _brent_root
from .errors import DomainError, _fields, _finite, _finite_tuple
from .preferences import GENERAL, Preferences, cutoff_probability, gain_loss, loss_multiplier

__all__ = [
    "ConsumptionUtility",
    "DiscreteLottery",
    "BeliefSolution",
    "total_utility",
    "gain_probability",
    "solve_optimal_beliefs",
    "canonical_beliefs",
    "general_residual_solve",
]

_PROB_TOL = 1e-12
_SLOPE_TIE_TOL = 1e-12


@dataclass(frozen=True)
class ConsumptionUtility:
    """Reference-independent utility over payoffs: linear, power (CRRA) or log."""

    kind: str = "linear"
    rho: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "power", "log"):
            raise ValueError(f"utility.kind must be 'linear', 'power' or 'log', got {self.kind!r}")
        if self.kind == "power":
            # a missing rho (None) is refused here too, by name
            object.__setattr__(self, "rho", _finite("utility.rho", self.rho))
            if self.rho <= 0 or self.rho == 1.0:
                raise ValueError(f"utility.rho must be positive and different from 1, got {self.rho}")

    def value(self, z: float) -> float:
        if self.kind == "linear":
            return z
        if self.kind == "log":
            if z <= 0:
                raise DomainError(f"log utility undefined at payoff {z}")
            return math.log(z)
        rho = self.rho
        if z < 0 or (z == 0 and rho > 1):
            raise DomainError(f"power utility with rho={rho} undefined at payoff {z}")
        return z ** (1.0 - rho) / (1.0 - rho)

    def inverse(self, u: float) -> float:
        if self.kind == "linear":
            return u
        if self.kind == "log":
            return math.exp(u)
        rho = self.rho
        v = u * (1.0 - rho)
        if v < 0:
            raise DomainError(f"utility level {u} outside the range of power utility with rho={rho}")
        return v ** (1.0 / (1.0 - rho))

    @property
    def needs_positive_wealth(self) -> bool:
        return self.kind != "linear"

    def value_array(self, z: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value`; the caller guarantees the domain."""
        import numpy as np
        z = np.asarray(z, dtype=float)
        if self.kind == "linear":
            return z
        if self.kind == "log":
            return np.log(z)
        return z ** (1.0 - self.rho) / (1.0 - self.rho)

    def marginal_array(self, z: np.ndarray) -> np.ndarray:
        """Marginal utility at each payoff; the caller guarantees the domain."""
        import numpy as np
        z = np.asarray(z, dtype=float)
        if self.kind == "linear":
            return np.ones_like(z)
        if self.kind == "log":
            return 1.0 / z
        return z ** -self.rho

    @classmethod
    def from_dict(cls, obj: dict) -> "ConsumptionUtility":
        _fields("utility", obj)
        kind = obj.get("kind", "linear")
        if kind == "power":
            return cls("power", *_fields("utility", obj, "rho"))
        return cls(kind)


@dataclass(frozen=True)
class DiscreteLottery:
    """A finite lottery: ascending payoffs with strictly positive probabilities.

    Equal payoffs are merged at construction (their probabilities summed),
    so states are in strictly increasing payoff order afterwards.
    """

    payoffs: tuple[float, ...]
    probs: tuple[float, ...]
    utility: ConsumptionUtility = field(default_factory=ConsumptionUtility)

    def __post_init__(self) -> None:
        payoffs = _finite_tuple("payoffs", self.payoffs)
        probs = _finite_tuple("probs", self.probs)
        if len(payoffs) != len(probs):
            raise ValueError(
                f"payoffs and probs must have equal length, got {len(payoffs)} and {len(probs)}"
            )
        if not payoffs:
            raise ValueError("lottery needs at least one state")
        if any(p <= 0 for p in probs):
            raise ValueError("probs must be strictly positive")
        if abs(math.fsum(probs) - 1.0) > _PROB_TOL:
            raise ValueError(f"probs must sum to 1 within {_PROB_TOL}, got {math.fsum(probs)}")
        merged: dict[float, float] = {}
        for z, p in sorted(zip(payoffs, probs)):
            merged[z] = merged.get(z, 0.0) + p
        object.__setattr__(self, "payoffs", tuple(merged.keys()))
        object.__setattr__(self, "probs", tuple(merged.values()))

    @property
    def size(self) -> int:
        return len(self.payoffs)

    @cached_property
    def utilities(self) -> tuple[float, ...]:
        """Consumption utilities of the payoffs, in ascending order."""
        return tuple(self.utility.value(z) for z in self.payoffs)

    @cached_property
    def mean_utility(self) -> float:
        return math.fsum(p * u for p, u in zip(self.probs, self.utilities))

    @classmethod
    def from_dict(cls, obj: dict) -> "DiscreteLottery":
        payoffs, probs = _fields("lottery", obj, "payoffs", "probs")
        utility = ConsumptionUtility.from_dict(obj["utility"]) if "utility" in obj else ConsumptionUtility()
        return cls(payoffs, probs, utility)


@dataclass(frozen=True)
class BeliefSolution:
    """Optimal subjective beliefs for one lottery.

    ``expectation_interval`` is the full set of maximizing subjective
    expectations (a nondegenerate interval only in knife-edge cases);
    ``subjective_expectation`` is the canonical point chosen from it and
    ``q`` a canonical belief vector attaining it (``to_dict`` keeps tuples).
    """

    q: tuple[float, ...]
    subjective_expectation: float
    gain_mass: float
    total_utility: float
    expectation_interval: tuple[float, float]

    def to_dict(self) -> dict:
        return asdict(self)


def _check_belief_vector(lottery: DiscreteLottery, q) -> tuple[float, ...]:
    q = tuple(float(v) for v in q)
    if len(q) != lottery.size:
        raise ValueError(f"belief vector length {len(q)} does not match lottery size {lottery.size}")
    if any(not v >= -1e-12 for v in q):
        raise ValueError(f"belief vector q must be nonnegative, got {q}")
    total = math.fsum(q)
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"belief vector q must sum to 1, got {total}")
    return q


def _utility_at_expectation(lottery: DiscreteLottery, expectation: float, prefs: Preferences) -> float:
    u = lottery.utilities
    gl = math.fsum(p * gain_loss(us - expectation, prefs) for p, us in zip(lottery.probs, u))
    return expectation + prefs.eta * gl


def total_utility(lottery: DiscreteLottery, q, prefs: Preferences) -> float:
    """Anticipatory plus expected gain-loss utility under beliefs ``q``."""
    q = _check_belief_vector(lottery, q)
    expectation = math.fsum(qs * us for qs, us in zip(q, lottery.utilities))
    return _utility_at_expectation(lottery, expectation, prefs)


def gain_probability(lottery: DiscreteLottery, expectation: float) -> float:
    """Objective mass of states whose utility weakly exceeds ``expectation``."""
    return math.fsum(p for p, u in zip(lottery.probs, lottery.utilities) if u >= expectation)


def _tilt_factors(p_g: float, p_l: float, m_g: float, m_l: float,
                  target: float) -> tuple[float, float] | None:
    """Factors ``(c_g, c_l)`` scaling the gain and loss regions of a distribution
    (masses ``p_g``, ``p_l``; utility moments ``m_g``, ``m_l``) so that the total
    mass is 1 and the mean utility is ``target``; None when the system is singular."""
    det = p_g * m_l - p_l * m_g
    if det == 0:
        return None
    return (m_l - target * p_l) / det, (target * p_g - m_g) / det


def canonical_beliefs(lottery: DiscreteLottery, target_expectation: float) -> tuple[float, ...]:
    """A belief vector with the given subjective expectation.

    Gain states (utility >= target) are scaled by one common factor and loss
    states by another, chosen so that mass is 1 and the mean is the target.
    When a region is empty the two-point blend of the extreme states is used
    instead.
    """
    u = lottery.utilities
    p = lottery.probs
    t = float(target_expectation)
    lo, hi = u[0], u[-1]
    if t < lo - 1e-9 or t > hi + 1e-9:
        raise ValueError(f"target expectation {t} outside the utility range [{lo}, {hi}]")
    t = min(max(t, lo), hi)
    if t == hi:
        return tuple(0.0 if i < lottery.size - 1 else 1.0 for i in range(lottery.size))
    if t == lo:
        return tuple(1.0 if i == 0 else 0.0 for i in range(lottery.size))

    gain = [u_s >= t for u_s in u]
    p_g = math.fsum(ps for ps, g in zip(p, gain) if g)
    p_l = math.fsum(ps for ps, g in zip(p, gain) if not g)
    m_g = math.fsum(ps * us for ps, us, g in zip(p, u, gain) if g)
    m_l = math.fsum(ps * us for ps, us, g in zip(p, u, gain) if not g)
    factors = _tilt_factors(p_g, p_l, m_g, m_l, t) if p_g > 0 and p_l > 0 else None
    if factors is not None and factors[0] >= 0 and factors[1] >= 0:
        c_g, c_l = factors
        return tuple(ps * (c_g if g else c_l) for ps, g in zip(p, gain))
    # degenerate region: put all mass on the extreme states
    theta = (t - lo) / (hi - lo)
    q = [0.0] * lottery.size
    q[0] = 1.0 - theta
    q[-1] = theta
    return tuple(q)


def _solution_at(lottery: DiscreteLottery, expectation: float, prefs: Preferences,
                 interval: tuple[float, float]) -> BeliefSolution:
    return BeliefSolution(
        q=canonical_beliefs(lottery, expectation),
        subjective_expectation=expectation,
        gain_mass=gain_probability(lottery, expectation),
        total_utility=_utility_at_expectation(lottery, expectation, prefs),
        expectation_interval=interval,
    )


def solve_optimal_beliefs(lottery: DiscreteLottery, prefs: Preferences) -> BeliefSolution:
    """Exact maximizer of total utility over subjective beliefs.

    With a linear gain-loss function the objective is concave piecewise
    linear in the subjective expectation, so the argmax interval is read off
    the segment slope signs.  The canonical expectation is the objective mean
    when it lies inside that interval (the agent then has no incentive to
    bias at all) and the interval's left endpoint otherwise.  Non-linear
    gain-loss specifications are routed to :func:`general_residual_solve`.
    """
    if prefs.gain_loss.kind == GENERAL:
        return general_residual_solve(lottery, prefs)
    if lottery.size < 2:
        raise ValueError("belief solver requires at least two distinct payoffs")
    u = lottery.utilities
    p = lottery.probs
    p_star = cutoff_probability(prefs)

    # Segment j lies between u[j] and u[j+1]; its slope has the sign of the mass
    # of states j+1..S-1 minus p_star.  That mass falls as j grows, so the rising
    # segments come first and the falling ones last.  (`slopes` runs from j = S-2 down.)
    slopes = [tail - p_star for tail in itertools.accumulate(reversed(p[1:]))]
    rising = sum(c > _SLOPE_TIE_TOL for c in slopes)
    falling = sum(c < -_SLOPE_TIE_TOL for c in slopes)
    lo, hi = u[rising], u[-1 - falling]

    mean = lottery.mean_utility
    expectation = mean if lo <= mean <= hi else lo
    return _solution_at(lottery, expectation, prefs, (lo, hi))


def general_residual_solve(lottery: DiscreteLottery, prefs: Preferences) -> BeliefSolution:
    """Optimal beliefs under the general constant-marginal gain-loss kind.

    Total utility has slope ``dU/dE = -eta*beta * r(E)`` in the subjective
    expectation E, where

        r(E) = sum_{u_s < E} p_s * (lambda(E - u_s) - 1) - (1 - eta*beta)/(eta*beta).

    ``r`` is continuous (a state joins the sum at ``lambda(0) = 1``), strictly
    increasing on ``(u_1, u_S]`` and negative at ``u_1``, so U rises up to the
    unique root of ``r`` and falls after it.  The result is ``u_S`` when
    ``r(u_S) <= 0``, and otherwise the Brent root of ``r`` on ``[u_1, u_S]``.
    """
    if prefs.gain_loss.kind != GENERAL:
        raise ValueError("general_residual_solve requires the general gain-loss kind")
    if lottery.size < 2:
        raise ValueError("belief solver requires at least two distinct payoffs")
    u = lottery.utilities
    p = lottery.probs
    eta_beta = prefs.eta * prefs.gain_loss.beta
    rhs = (1.0 - eta_beta) / eta_beta

    def residual(e: float) -> float:
        acc = 0.0
        for ps, us in zip(p, u):
            if us >= e:
                break
            acc += ps * (loss_multiplier(e - us, prefs) - 1.0)
        return acc - rhs

    lo, hi = u[0], u[-1]
    r_hi = residual(hi)
    if r_hi <= 0.0:
        e = hi
    else:
        # no state lies below u_1, so r(u_1) = -rhs < 0
        e = _brent_root(residual, lo, -rhs, hi, r_hi, xtol=1e-15 * max(1.0, abs(lo), abs(hi)))[0]
    return _solution_at(lottery, e, prefs, (e, e))
