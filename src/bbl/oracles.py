"""Brute-force verifiers for the belief and portfolio solvers.

The belief oracle is independent of its solver: naive summation over an
exhaustive simplex grid, with the general gain-loss function integrated by
composite Simpson instead of in closed form.  The share scan (a dense scan
with parabolic refinement) is independent only in its maximization: the
objectives that ``verify alpha`` and the tests give it read the solver's
own Gauss-Legendre nodes.  Desk scale only.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from .beliefs import DiscreteLottery
from .errors import _finite
from .preferences import GENERAL, Preferences

__all__ = ["grid_search_beliefs", "grid_search_alpha", "simpson_integral"]

_MAX_STATES = 4
_SIMPSON_MU_NODES = 801
_SIMPSON_CHUNK_ROWS = 128  # 128 rows of 801 nodes: each temporary stays under 1 MB


def _simpson_rows(fn, lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Composite Simpson rule on ``n`` nodes (``n`` odd) from each ``lo[i]`` to ``hi[i]``.

    ``fn`` gets each chunk's nodes flat, in one shared buffer it may overwrite.
    """
    h = (hi - lo) / (n - 1)
    out = np.empty_like(h)
    ticks = np.arange(n, dtype=float)
    buf = np.empty((min(h.size, _SIMPSON_CHUNK_ROWS), n))
    for i in range(0, h.size, _SIMPSON_CHUNK_ROWS):
        rows = slice(i, i + _SIMPSON_CHUNK_ROWS)
        x = np.multiply(ticks, h[rows, None], out=buf[: h[rows].size])  # np.linspace, row by row
        x += lo[rows, None]
        x[:, -1] = hi[rows]
        y = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        out[rows] = h[rows] / 3.0 * (y[:, 0] + y[:, -1] + 4.0 * y[:, 1:-1:2].sum(axis=1)
                                     + 2.0 * y[:, 2:-2:2].sum(axis=1))
    return out


def simpson_integral(fn, lo: float, hi: float, n: int = 2001) -> float:
    """Composite Simpson rule on ``n`` nodes (``n`` odd, at least 3)."""
    if hi == lo:
        return 0.0
    if n < 3:
        raise ValueError(f"Simpson rule needs at least 3 nodes, got {n}")
    if n % 2 == 0:
        n += 1
    return float(_simpson_rows(fn, np.array([lo], dtype=float), np.array([hi], dtype=float), n)[0])


def _oracle_gain_loss(x: np.ndarray, prefs: Preferences, out: np.ndarray | None = None) -> np.ndarray:
    """Gain-loss utility recomputed without the closed-form loss branch, written to
    ``out`` when given (``out`` may be ``x``)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x) if out is None else out
    if prefs.gain_loss.kind != GENERAL:
        np.copyto(out, x)
        return np.multiply(out, prefs.lambda0, out=out, where=out < 0)
    beta, kappa, lam = prefs.gain_loss.beta, prefs.gain_loss.kappa, prefs.lambda0

    def slope(s):  # exp(-kappa * s) overwrites the nodes: one buffer less
        e = np.exp(np.multiply(s, -kappa, out=s), out=s)
        return beta * (1.0 + (lam - 1.0) * (1.0 - e))

    pos = x >= 0
    t = -x[~pos]
    out[pos] = beta * x[pos]
    # split at the end of the exp(-kappa s) boundary layer so the
    # Simpson rule stays accurate for very large kappa
    split = np.minimum(t, 30.0 / kappa)
    out[~pos] = -(_simpson_rows(slope, np.zeros_like(t), split, _SIMPSON_MU_NODES)
                  + _simpson_rows(slope, split, t, _SIMPSON_MU_NODES))
    return out


@lru_cache(maxsize=3)
def _simplex_grid(n_states: int, steps: int) -> np.ndarray:
    """All probability vectors with components that are multiples of 1/steps.

    Stars and bars: each choice of ``n_states - 1`` bars among
    ``steps + n_states - 1`` slots gives one row, and combinations in
    lexicographic order give the rows in lexicographic order.
    """
    slots = steps + n_states - 1
    rows = comb(slots, n_states - 1)
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(slots), n_states - 1)),
                       dtype=np.int16, count=rows * (n_states - 1)).reshape(rows, n_states - 1)
    grid = (np.diff(bars, prepend=np.int16(-1), append=np.int16(slots)) - 1) / steps
    grid.flags.writeable = False
    return grid


def _grid_step(step) -> float:
    """``step`` as a float; ValueError naming ``step`` unless it is finite and in [0.01, 1]."""
    step = _finite("step", step)
    if not 0.01 <= step <= 1.0:
        raise ValueError(f"step must lie in [0.01, 1], got {step}")
    return step


def grid_search_beliefs(lottery: DiscreteLottery, prefs: Preferences,
                        step: float = 0.01) -> tuple[tuple[float, ...], float]:
    """Exhaustive simplex-grid maximum of the belief objective.

    Refuses more than four states (combinatorial blowup).  The spacing is
    ``1/round(1/step)``: ``step=0.4`` searches at 0.5, above 2/3 only the
    corners.  Returns the lexicographically first best grid vector and its
    naively summed objective value.
    """
    if lottery.size > _MAX_STATES:
        raise ValueError(f"grid search refuses lotteries with more than {_MAX_STATES} states")
    step = _grid_step(step)
    u = np.array([lottery.utility.value(z) for z in lottery.payoffs])
    p = np.array(lottery.probs)
    if lottery.size == 1:
        return (1.0,), float(u[0])

    grid = _simplex_grid(lottery.size, int(round(1.0 / step)))
    expectations = grid @ u
    totals = expectations.copy()
    term = np.empty_like(expectations)  # each state's term, computed in place
    for s in range(lottery.size):
        _oracle_gain_loss(np.subtract(u[s], expectations, out=term), prefs, out=term)
        totals += np.multiply(term, prefs.eta * p[s], out=term)
    best = int(np.argmax(totals))
    return tuple(grid[best]), float(totals[best])


def grid_search_alpha(objective, bounds, n_points: int = 2001) -> tuple[float, float]:
    """Dense scan of a share objective with 3-point parabolic refinement."""
    if n_points < 2001:
        raise ValueError(f"grid scan needs at least 2001 points, got {n_points}")
    lo, hi = _finite("bounds.lo", bounds[0]), _finite("bounds.hi", bounds[1])
    if lo >= hi:
        raise ValueError(f"bounds must satisfy lo < hi, got {bounds}")
    xs = np.linspace(lo, hi, n_points)
    ys = np.array([objective(x) for x in xs])
    i = int(np.argmax(ys))
    best_x, best_y = float(xs[i]), float(ys[i])
    if 0 < i < n_points - 1 and np.isfinite(ys[i - 1 : i + 2]).all():
        h = xs[1] - xs[0]
        denom = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
        if denom < 0:
            x_v = xs[i] + 0.5 * h * (ys[i - 1] - ys[i + 1]) / denom
            if xs[i - 1] < x_v < xs[i + 1]:
                y_v = objective(float(x_v))
                if y_v > best_y:
                    best_x, best_y = float(x_v), float(y_v)
    return best_x, best_y
