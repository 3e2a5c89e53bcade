"""Homogeneous-investor equilibrium prices of a risky asset under a short-sale constraint.

The risk-free return and price are zero and payoffs are valued linearly, so
identical investors hold either only the risky asset or none of it, and the
price must leave them indifferent:

* naive market:          price = eta * (subjective expectation of R);
* sophisticated market:  price = eta * (E[R] + (lambda-1) * lower partial
  moment of R below the subjective expectation);
* rational market:       price = eta * E[R].

The sweep varies eta at fixed lambda so the cutoff probability runs over a
grid, producing one priced row per cutoff.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Sequence, TextIO

from ._roots import _brent_root
from .distributions import (
    ContinuousDistribution,
    naive_value,
    partial_expectation,
    sophisticated_value,
    subjective_expectation,
)
from .errors import _finite
from .preferences import Preferences, _loss_aversion

__all__ = [
    "EquilibriumPoint",
    "naive_price",
    "sophisticated_price",
    "sweep",
    "default_grid",
    "sweep_thresholds",
    "write_sweep_csv",
    "CSV_COLUMNS",
]

_MAX_GRID_ROWS = 100_000  # a 100,000-row sweep takes seconds; a longer grid is an input error


class EquilibriumPoint(NamedTuple):
    """One row of the price sweep: cutoff, implied eta and the three prices.

    A named tuple: immutable and hashable, with the fields in CSV column order;
    it compares equal to the plain tuple of its fields.
    """

    p_star: float
    eta: float
    pi_rational: float
    pi_naive: float
    pi_sophisticated: float

    def to_dict(self) -> dict:
        return self._asdict()


CSV_COLUMNS = EquilibriumPoint._fields


def naive_price(dist: ContinuousDistribution, prefs: Preferences) -> float:
    """Price leaving naive investors indifferent between the two assets."""
    return prefs.eta * naive_value(dist, prefs)


def sophisticated_price(dist: ContinuousDistribution, prefs: Preferences) -> float:
    """Price zeroing the sophisticated investor's marginal value of the risky share.

    Coincides with the sophisticated agent's per-unit value of holding the
    asset, which is what the indifference construction requires.
    """
    return sophisticated_value(dist, prefs)


def default_grid(start: float = 0.05, end: float = 0.95, step: float = 0.01) -> tuple[float, ...]:
    """Inclusive cutoff grid; the end point is kept when within half a step.

    ValueError, before any grid is built, for a non-finite argument, ``end < start``,
    ``step <= 0`` or a grid of more than ``_MAX_GRID_ROWS`` rows.
    """
    start, end, step = (_finite(name, v) for name, v in (("start", start), ("end", end), ("step", step)))
    if end < start or step <= 0:
        raise ValueError(f"grid needs start <= end and step > 0, got {start}:{end}:{step}")
    half_steps = (end - start) / step + 0.5  # inf when the span overflows
    if not half_steps < _MAX_GRID_ROWS:
        raise ValueError(f"grid {start}:{end}:{step} has more than {_MAX_GRID_ROWS} rows")
    n = int(math.floor(half_steps)) + 1
    return tuple(start + i * step for i in range(n))


_DEFAULT_GRID = default_grid()


def sweep(dist: ContinuousDistribution, lambda0: float,
          p_star_grid: Iterable[float] | None = None) -> list[EquilibriumPoint]:
    """Equilibrium prices across a grid of cutoffs at fixed ``lambda0``.

    Validates the grid, then ``lambda0``, once (with the errors of ``eta_for_cutoff``),
    then each row's cutoff (with the DomainError of ``subjective_expectation``).  The
    rows are then built column by column: eta, the cutoff, all subjective expectations
    from one call of the distribution's quantile kernel and all partial moments from one
    call of its lower-moment kernel, with no Python-level call per row.  The cutoff takes
    the round trip ``p_star -> eta -> cutoff_probability``, so each row equals
    ``naive_price`` and ``sophisticated_price`` at ``Preferences(eta, lambda0)``, bit for bit.
    """
    grid = tuple(p_star_grid) if p_star_grid is not None else _DEFAULT_GRID
    if not grid:
        raise ValueError("p_star grid is empty")
    if any(not 0.0 < p < 1.0 for p in grid):
        raise ValueError("p_star grid must lie strictly inside (0, 1)")
    lambda0 = _loss_aversion(lambda0)
    p_stars, loss_weight = sorted(grid), lambda0 - 1.0
    # preferences._eta and then preferences._cutoff of each row, inline
    etas = [1.0 / (lambda0 - float(p_star) * loss_weight) for p_star in p_stars]
    cutoffs = [(eta * lambda0 - 1.0) / (eta * loss_weight) for eta in etas]
    for cutoff in cutoffs:
        if not 0.0 < 1.0 - cutoff < 1.0:
            subjective_expectation(dist, cutoff)  # raises the row's DomainError
    mean = dist.mean()
    expectations = dist._quantiles([1.0 - cutoff for cutoff in cutoffs])
    moments = dist._lower_moments(expectations)
    # tuple.__new__ skips the Python-level EquilibriumPoint.__new__ of each row
    return [tuple.__new__(EquilibriumPoint, (p_star, eta, eta * mean, eta * a, eta * (mean + loss_weight * moment)))
            for p_star, eta, a, moment in zip(p_stars, etas, expectations, moments)]


def sweep_thresholds(dist: ContinuousDistribution, lambda0: float) -> dict:
    """Diagnostic cutoffs of the sweep.

    ``negative_subjective_mean`` -- cutoff above which the subjective
    expectation itself turns negative; ``loss_moment_sign_change`` -- cutoff
    in ``[1e-6, 1 - 1e-6]`` where the lower partial moment at the subjective
    expectation crosses zero, which is where the sophisticated and rational
    prices cross, or None when the moment keeps one sign over that range.
    The crossing is the Brent root in the payoff ``t`` of
    ``partial_expectation(dist, t)`` between the subjective expectations at
    the two ends of the range, mapped back to the cutoff ``1 - cdf(t)``.
    """
    out = {"negative_subjective_mean": None, "loss_moment_sign_change": None}
    lo, hi = dist.support
    if lo < 0 < hi:
        out["negative_subjective_mean"] = 1.0 - dist.cdf(0.0)

    t_lo, t_hi = (subjective_expectation(dist, p_star) for p_star in (1.0 - 1e-6, 1e-6))
    f_lo, f_hi = partial_expectation(dist, t_lo), partial_expectation(dist, t_hi)
    if f_lo * f_hi < 0:
        t = _brent_root(functools.partial(partial_expectation, dist), t_lo, f_lo, t_hi, f_hi)[0]
        out["loss_moment_sign_change"] = 1.0 - dist.cdf(t)
    return out


def _fmt(x: float) -> str:
    """``x`` at 10 significant digits; FloatingPointError for NaN or an infinity,
    which no output may carry."""
    if not math.isfinite(x):
        raise FloatingPointError(f"non-finite result {x}")
    return f"{x:.10g}"


def write_sweep_csv(points: Sequence[EquilibriumPoint], stream: TextIO) -> None:
    """CSV with exactly the five declared columns, 10 significant digits.

    Raises FloatingPointError at a value that is not finite; the rows before it
    are already written.
    """
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for pt in points:
        stream.write(",".join(_fmt(v) for v in pt) + "\n")
