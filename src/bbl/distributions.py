"""Continuous payoff distributions and the belief kernel built on them.

Supported families: a single normal, a finite mixture of normals, and a
tabulated density (linearly interpolated between grid points).  Unbounded
families are truncated at an eight-standard-deviation envelope per
component; the discarded tail mass is below 1e-15.

The two quantities everything else is assembled from are

* ``subjective_expectation(dist, p_star)`` -- the point with upper-tail
  mass ``p_star``, which is the optimal subjective expectation of an agent
  with that cutoff, and
* ``partial_expectation(dist, a)`` -- the lower partial moment
  ``integral of z * f(z) below a``.

Both are exact.  A tabulated density is linear on each cell, so its mass and
first moment are prefix tables built once per distribution plus one cell's
closed form, and its quantile is one cell's quadratic root.  Normal and
mixture kinds use the closed-form cdf and partial moment, with the quantile
found by safeguarded Newton steps that evaluate cdf and density with ``math``.
Gauss-Legendre panel quadrature (``quad_nodes``, the array density's caller)
serves only the portfolio solvers and the cross-check against the closed forms.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, _fields, _finite, _finite_tuple
from .preferences import _VERDICT_TOL, INDIFFERENT, LINEAR, Preferences, _verdict, cutoff_probability

__all__ = [
    "NormalComponent",
    "ContinuousDistribution",
    "ComparisonResult",
    "subjective_expectation",
    "partial_expectation",
    "partial_expectation_closed_form",
    "naive_value",
    "sophisticated_value",
    "sophisticated_value_at",
    "compare",
    "PREFER_A",
    "PREFER_B",
    "INDIFFERENT",
]

PREFER_A = "prefer_a"
PREFER_B = "prefer_b"

_SUPPORT_SIGMAS = 8.0
_NEWTON_MAX_ITER = 100
_NEWTON_X_TOL = 1e-15  # relative to the width of the support
_GL_ORDER = 20  # Gauss-Legendre nodes per panel
_GL_PANELS = 64  # equal panels over a normal or mixture support
_TABULATED_MASS_TOL = 1e-8


@lru_cache(maxsize=1)
def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for the panels delimited by ``edges``."""
    base_x, base_w = _leggauss()
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    x = (lo + half) + half * base_x[None, :]
    w = half * base_w[None, :]
    return x.ravel(), w.ravel()


def _norm_pdf(z: np.ndarray | float, mean: float, sd: float):
    t = (z - mean) / sd
    return (math.exp if isinstance(t, float) else np.exp)(-0.5 * t * t) / (sd * math.sqrt(2.0 * math.pi))


def _norm_cdf(z: float, mean: float, sd: float) -> float:
    return 0.5 * (1.0 + math.erf((z - mean) / (sd * math.sqrt(2.0))))


def _approx_norm_quantile(p: float) -> float:
    """Standard normal quantile within 4.5e-4 (Abramowitz & Stegun 26.2.23): a Newton start."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    x = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return x if p > 0.5 else -x


def _running_sums(terms) -> tuple[float, ...]:
    """Prefix sums ``0, t0, t0+t1, ...``, each within about one rounding of
    the exact partial sum (Neumaier's compensated summation)."""
    out = [0.0]
    total = comp = 0.0
    for t in terms:
        s = total + t
        comp += (total - s) + t if abs(total) >= abs(t) else (t - s) + total
        total = s
        out.append(total + comp)
    return tuple(out)


@dataclass(frozen=True)
class _CellTables:
    """Per-cell slopes and prefix tables of a tabulated density: ``mass[i]``
    and ``moment[i]`` integrate ``f`` and ``z f`` from ``grid[0]`` to ``grid[i]``."""

    slope: tuple[float, ...]
    mass: tuple[float, ...]
    moment: tuple[float, ...]

    @classmethod
    def build(cls, z: tuple[float, ...], f: tuple[float, ...]) -> "_CellTables":
        cells = range(len(z) - 1)
        h = [z[i + 1] - z[i] for i in cells]
        # f is linear on a cell, so the trapezoid mass and this first moment are exact
        mass = [(f[i] + f[i + 1]) * h[i] * 0.5 for i in cells]
        moment = [h[i] / 6.0 * (f[i] * (2.0 * z[i] + z[i + 1]) + f[i + 1] * (z[i] + 2.0 * z[i + 1]))
                  for i in cells]
        return cls(tuple((f[i + 1] - f[i]) / h[i] for i in cells), _running_sums(mass), _running_sums(moment))


@dataclass(frozen=True)
class NormalComponent:
    weight: float
    mean: float
    sd: float

    def __post_init__(self) -> None:
        for name in ("weight", "mean", "sd"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.weight <= 0:
            raise ValueError(f"mixture weight must be positive, got {self.weight}")
        if self.sd <= 0:
            raise ValueError(f"sd must be positive, got {self.sd}")


@dataclass(frozen=True)
class ContinuousDistribution:
    """Immutable density over an effective support interval."""

    kind: str
    components: tuple[NormalComponent, ...] = ()
    grid: tuple[float, ...] = ()
    density: tuple[float, ...] = ()
    _cells: _CellTables | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("normal", "mixture", "tabulated"):
            raise ValueError(f"distribution kind must be 'normal', 'mixture' or 'tabulated', got {self.kind!r}")
        if self.kind in ("normal", "mixture"):
            if not self.components:
                raise ValueError("distribution: missing normal components")
            total = math.fsum(c.weight for c in self.components)
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"mixture weights must sum to 1, got {total}")
        else:
            z = _finite_tuple("tabulated: z", self.grid)
            f = _finite_tuple("tabulated: f", self.density)
            if len(z) != len(f):
                raise ValueError("tabulated: fields 'z' and 'f' must have equal length")
            if len(z) < 2:
                raise ValueError("tabulated: need at least two grid points")
            if any(b <= a for a, b in zip(z, z[1:])):
                raise ValueError("tabulated: field 'z' must be strictly increasing")
            if any(v < 0 for v in f):
                raise ValueError("tabulated: density must be nonnegative")
            object.__setattr__(self, "grid", z)
            object.__setattr__(self, "density", f)
            object.__setattr__(self, "_cells", _CellTables.build(z, f))
            total = self._cells.mass[-1]
            if abs(total - 1.0) > _TABULATED_MASS_TOL:
                raise ValueError(
                    f"tabulated: density must integrate to 1 within {_TABULATED_MASS_TOL}, got {total}")

    # ---- constructors -------------------------------------------------

    @classmethod
    def normal(cls, mean: float, sd: float) -> "ContinuousDistribution":
        return cls("normal", components=(NormalComponent(1.0, mean, sd),))

    @classmethod
    def mixture(cls, components) -> "ContinuousDistribution":
        comps = tuple(
            c if isinstance(c, NormalComponent) else NormalComponent(c[0], c[1], c[2])
            for c in components
        )
        return cls("mixture", components=comps)

    @classmethod
    def tabulated(cls, z, f) -> "ContinuousDistribution":
        return cls("tabulated", grid=z, density=f)

    # ---- basic functionals --------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "tabulated":
            return self.grid[0], self.grid[-1]
        lo = min(c.mean - _SUPPORT_SIGMAS * c.sd for c in self.components)
        hi = max(c.mean + _SUPPORT_SIGMAS * c.sd for c in self.components)
        return lo, hi

    def pdf(self, z):
        """Density at ``z``: float in, float out (numpy-free for normal and mixture); array in, array out."""
        scalar = self.kind != "tabulated" and isinstance(z, float)
        z = z if scalar else np.asarray(z, dtype=float)
        if self.kind == "tabulated":
            out = np.interp(z, self.grid, self.density, left=0.0, right=0.0)
        else:
            out = 0.0
            for c in self.components:
                out += c.weight * _norm_pdf(z, c.mean, c.sd)
        return out if scalar or z.ndim else float(out)

    def _cell_head(self, z: float) -> tuple[float, float]:
        """Mass and first moment of a tabulated density from ``grid[0]`` to an
        interior point ``z``: prefix tables up to z's cell plus that cell's closed form."""
        cells = self._cells
        i = bisect_right(self.grid, z, 1, len(self.grid) - 1) - 1
        f0, s, t = self.density[i], cells.slope[i], z - self.grid[i]
        mass = t * (f0 + 0.5 * s * t)
        moment = self.grid[i] * mass + t * t * (0.5 * f0 + s * t / 3.0)
        return cells.mass[i] + mass, cells.moment[i] + moment

    def cdf(self, z: float) -> float:
        if self.kind == "tabulated":
            if z <= self.grid[0]:
                return 0.0
            if z >= self.grid[-1]:
                return 1.0
            return self._cell_head(z)[0]
        out = 0.0
        for c in self.components:
            out += c.weight * _norm_cdf(z, c.mean, c.sd)
        return out

    def mean(self) -> float:
        if self.kind == "tabulated":
            return self._cells.moment[-1]
        return math.fsum(c.weight * c.mean for c in self.components)

    def quantile(self, p: float) -> float:
        """Smallest z on the effective support with cdf(z) >= p.

        Tabulated: the root of one cell's quadratic cdf.  Normal and mixture:
        Newton steps (one ``cdf`` and one float ``pdf`` call each, no numpy) inside
        a bracket of the support, bisecting wherever Newton would leave the bracket.
        """
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile defined only for probabilities in (0, 1), got {p}")
        if self.kind == "tabulated":
            return self._tabulated_quantile(p)
        s_lo, s_hi = self.support
        tol = _NEWTON_X_TOL * (s_hi - s_lo)
        # The quantile lies between the smallest and largest component quantile;
        # the approximate normal quantile is widened by more than its error.
        z_p = _approx_norm_quantile(p)
        q = [c.mean + c.sd * z_p for c in self.components]
        pad = 1e-3 * max(c.sd for c in self.components)
        lo, hi = (min(max(v, s_lo), s_hi) for v in (min(q) - pad, max(q) + pad))
        x = min(max(math.fsum(c.weight * qi for c, qi in zip(self.components, q)), lo), hi)
        for _ in range(_NEWTON_MAX_ITER):
            r = self.cdf(x) - p
            if r == 0.0:
                return x
            if r < 0.0:
                lo = x
            else:
                hi = x
            density = self.pdf(x)
            nxt = x - r / density if density > 0.0 else math.inf
            if abs(nxt - x) > tol and not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - x) <= tol:
                return nxt
            x = nxt
        return x

    def _tabulated_quantile(self, p: float) -> float:
        mass = self._cells.mass
        k = bisect_left(mass, p)
        if k == len(mass):
            return self.grid[-1]
        if mass[k] == p:
            return self.grid[k]
        i = k - 1
        r = p - mass[i]
        f0 = self.density[i]
        # stable root of f0*d + slope*d^2/2 = r on cell i, which holds mass >= r > 0
        d = 2.0 * r / (f0 + math.sqrt(max(f0 * f0 + 2.0 * self._cells.slope[i] * r, 0.0)))
        return min(self.grid[i] + d, self.grid[i + 1])

    # ---- quadrature ----------------------------------------------------

    def _panel_edges(self, lo: float, hi: float) -> np.ndarray:
        if self.kind == "tabulated":
            inner = [z for z in self.grid if lo < z < hi]
            return np.array([lo, *inner, hi])
        return np.linspace(lo, hi, _GL_PANELS + 1)

    def quad_nodes(self, lo: float | None = None, hi: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``x`` and weights ``w`` with the density folded in, so that
        ``integral of f(z) g(z) over [lo, hi]`` is approximated by ``w @ g(x)``."""
        s_lo, s_hi = self.support
        lo = s_lo if lo is None else max(lo, s_lo)
        hi = s_hi if hi is None else min(hi, s_hi)
        if hi <= lo:
            return np.empty(0), np.empty(0)
        x, w = _panel_nodes(self._panel_edges(lo, hi))
        return x, w * self.pdf(x)

    # ---- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "normal":
            c = self.components[0]
            return {"normal": {"mean": c.mean, "sd": c.sd}}
        if self.kind == "mixture":
            return {"mixture": [{"w": c.weight, "mean": c.mean, "sd": c.sd} for c in self.components]}
        return {"tabulated": {"z": list(self.grid), "f": list(self.density)}}

    @classmethod
    def from_dict(cls, obj: dict) -> "ContinuousDistribution":
        _fields("distribution", obj)
        if "normal" in obj:
            return cls.normal(*_fields("distribution.normal", obj["normal"], "mean", "sd"))
        if "mixture" in obj:
            if not isinstance(obj["mixture"], list):
                raise ValueError("distribution.mixture: expected a JSON list")
            return cls.mixture([_fields(f"distribution.mixture[{i}]", spec, "w", "mean", "sd")
                                for i, spec in enumerate(obj["mixture"])])
        if "tabulated" in obj:
            return cls.tabulated(*_fields("distribution.tabulated", obj["tabulated"], "z", "f"))
        raise ValueError("distribution: expected one of the fields 'normal', 'mixture', 'tabulated'")


def subjective_expectation(dist: ContinuousDistribution, p_star: float) -> float:
    """The point with upper-tail mass ``p_star``.

    This is where an agent with cutoff ``p_star`` settles her expectation:
    exactly a ``p_star`` chance of doing at least as well as anticipated.
    """
    if not 0.0 < p_star < 1.0:
        raise DomainError(
            f"subjective expectation is unbounded for cutoff {p_star}; need 0 < p_star < 1"
        )
    return dist.quantile(1.0 - p_star)


def partial_expectation(dist: ContinuousDistribution, a: float) -> float:
    """Lower partial moment ``integral of z f(z) below a``, exact for every kind."""
    if not math.isfinite(a):
        raise ValueError(f"partial expectation needs a finite bound, got {a}")
    if dist.kind != "tabulated":
        return partial_expectation_closed_form(dist, a)
    if a <= dist.grid[0]:
        return 0.0
    if a >= dist.grid[-1]:
        return dist.mean()
    return dist._cell_head(a)[1]


def partial_expectation_closed_form(dist: ContinuousDistribution, a: float) -> float:
    """Closed-form lower partial moment for normal and mixture kinds."""
    if dist.kind == "tabulated":
        raise ValueError("closed-form partial expectation requires a normal or mixture kind")
    acc = 0.0
    for c in dist.components:
        t = (a - c.mean) / c.sd
        acc += c.weight * (c.mean * _norm_cdf(t, 0.0, 1.0) - c.sd * _norm_pdf(t, 0.0, 1.0))
    return float(acc)


def naive_value(dist: ContinuousDistribution, prefs: Preferences) -> float:
    """Ranking statistic of an agent who acts on her biased expectation alone.

    Payoffs are valued linearly, so this is just the subjective expectation
    at the agent's cutoff.
    """
    if prefs.gain_loss.kind != LINEAR:
        raise ValueError("continuous belief kernel requires the linear gain-loss kind")
    return subjective_expectation(dist, cutoff_probability(prefs))


def sophisticated_value(dist: ContinuousDistribution, prefs: Preferences) -> float:
    """Full objective of an agent who internalizes her own bias.

    At optimal beliefs the anticipation and reference-point effects offset,
    leaving the objective mean plus an extra ``(lambda-1)`` weighting of the
    loss region below the subjective expectation (payoffs valued linearly).
    """
    return sophisticated_value_at(dist, prefs.eta, prefs.lambda0, naive_value(dist, prefs), dist.mean())


def sophisticated_value_at(dist: ContinuousDistribution, eta: float, lambda0: float,
                           expectation: float, mean: float) -> float:
    """``sophisticated_value`` at ``(eta, lambda0)``, given the subjective expectation and mean."""
    return eta * (mean + (lambda0 - 1.0) * partial_expectation(dist, expectation))


@dataclass(frozen=True)
class ComparisonResult:
    value_a: float
    value_b: float
    verdict: str
    tolerance: float = _VERDICT_TOL

    def to_dict(self) -> dict:
        return {"value_a": self.value_a, "value_b": self.value_b, "verdict": self.verdict}


def compare(dist_a: ContinuousDistribution, dist_b: ContinuousDistribution,
            prefs: Preferences, agent_kind: str) -> ComparisonResult:
    """Rank two lotteries for a naive or sophisticated agent."""
    if agent_kind == "naive":
        va, vb = naive_value(dist_a, prefs), naive_value(dist_b, prefs)
    elif agent_kind == "sophisticated":
        va, vb = sophisticated_value(dist_a, prefs), sophisticated_value(dist_b, prefs)
    else:
        raise ValueError(f"agent_kind must be 'naive' or 'sophisticated', got {agent_kind!r}")
    return ComparisonResult(value_a=va, value_b=vb, verdict=_verdict(va - vb, PREFER_A, PREFER_B))
