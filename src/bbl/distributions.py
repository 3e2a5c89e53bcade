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

Both are exact, and each has one implementation: a private column kernel,
``ContinuousDistribution._quantiles(ps)`` and ``._lower_moments(xs)``, that takes
a whole column of probabilities or bounds, dispatches on the kind once and reads
the distribution's constants once.  The scalar ``quantile``,
``partial_expectation`` and ``partial_expectation_closed_form`` are their checks
plus a one-element call; ``equilibrium.sweep`` calls each kernel once for all
its rows.  A tabulated density is linear on each cell, so its mass and first
moment are prefix tables built once per distribution plus one cell's closed
form, and its quantile is one cell's quadratic root.  Normal and mixture kinds
use the closed-form cdf (``0.5 * erfc``, accurate in the lower tail) and partial
moment, with the quantile found by safeguarded Newton steps that evaluate cdf
and density with ``math``, started from Wichura's AS241 normal quantile: one
step for a normal.  Each normal or mixture computes its support, Newton
constants and per-component constants once, at construction.
Gauss-Legendre panel quadrature (``quad_nodes``, the array density's caller)
serves only the portfolio solvers and the cross-check against the closed forms:
one read-only panel set over the whole support, built on first use (a tabulated
density's cells, or equal panels over each component's envelope, merged).  It is
read whole, or cut in two at a belief cutoff by ``_split``, which slices both
halves at one index, with fresh nodes only on the one panel that holds the cut.
Every node set's mass is checked against the cdf.  numpy is imported inside
those array paths only, so the scalar ``pdf``, ``cdf`` and ``quantile`` run
without it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import ClassVar, NamedTuple

from .errors import DomainError, _fields, _finite, _finite_tuple
from .preferences import _VERDICT_TOL, INDIFFERENT, Preferences, _interior_cutoff, _verdict

__all__ = [
    "NormalComponent",
    "ContinuousDistribution",
    "ComparisonResult",
    "subjective_expectation",
    "partial_expectation",
    "partial_expectation_closed_form",
    "naive_value",
    "sophisticated_value",
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
_GL_PANELS = 64  # equal panels over each normal component's envelope
# Node mass within this of the cdf's: the nodes of a mixture whose components' sds differ
# by up to 1e5 (means within 5) miss by at most 6.3e-12, from rounding the nodes of the
# narrowest component; a component the panels do not resolve loses far more.
_NODE_MASS_TOL = 1e-10
_TABULATED_MASS_TOL = 1e-8
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=1)
def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights, panel after panel, for the panels ``[lo[i], hi[i]]``."""
    base_x, base_w = _leggauss()
    lo = lo[:, None]
    hi = hi[:, None]
    half = 0.5 * (hi - lo)
    x = (lo + half) + half * base_x[None, :]
    w = half * base_w[None, :]
    return x.ravel(), w.ravel()


def _norm_pdf(z: np.ndarray | float, mean: float, sd: float, sd_sqrt_2pi: float):
    t = (z - mean) / sd
    if isinstance(t, float):
        return math.exp(-0.5 * t * t) / sd_sqrt_2pi
    import numpy as np
    return np.exp(-0.5 * t * t) / sd_sqrt_2pi


def _norm_cdf(z: float, mean: float, sd_sqrt2: float) -> float:
    # erfc of the distance below the mean keeps full relative accuracy in the lower tail,
    # where 0.5 * (1 + erf) cancels
    return 0.5 * math.erfc((mean - z) / sd_sqrt2)


def _norm_quantile(p: float) -> float:
    """Standard normal quantile for 0 < p < 1 within about 1e-16 relative: Wichura's
    AS241 (PPND16, *Applied Statistics* 37(3), 1988), as in CPython's ``statistics``."""
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e+3 * r + 3.3430575583588128105e+4) * r
                    + 6.7265770927008700853e+4) * r + 4.5921953931549871457e+4) * r
                  + 1.3731693765509461125e+4) * r + 1.9715909503065514427e+3) * r
                + 1.3314166789178437745e+2) * r + 3.3871328727963666080e+0) * q
        den = (((((((5.2264952788528545610e+3 * r + 2.8729085735721942674e+4) * r
                    + 3.9307895800092710610e+4) * r + 2.1213794301586595867e+4) * r
                  + 5.3941960214247511077e+3) * r + 6.8718700749205790830e+2) * r
                + 4.2313330701600911252e+1) * r + 1.0)
        return num / den
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    if r <= 5.0:
        r -= 1.6
        num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                    + 2.41780725177450611770e-1) * r + 1.27045825245236838258e+0) * r
                  + 3.64784832476320460504e+0) * r + 5.76949722146069140550e+0) * r
                + 4.63033784615654529590e+0) * r + 1.42343711074968357734e+0)
        den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                    + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                  + 6.89767334985100004550e-1) * r + 1.67638483018380384940e+0) * r
                + 2.05319162663775882187e+0) * r + 1.0)
    else:
        r -= 5.0
        num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                    + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                  + 2.96560571828504891230e-1) * r + 1.78482653991729133580e+0) * r
                + 5.46378491116411436990e+0) * r + 6.65790464350110377720e+0)
        den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                    + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                  + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0)
    return -num / den if q < 0.0 else num / den


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


class _Components(NamedTuple):
    """Constants of a normal or mixture density, computed once: the support, the
    Newton tolerance and bracket pad of ``quantile``, per component the tuple
    ``(weight, mean, sd, sd*sqrt(2), sd*sqrt(2*pi))`` read by ``cdf`` and ``pdf``,
    and per component its eight-sd envelope, which the panel set of ``quad_nodes``
    covers with equal panels."""

    support: tuple[float, float]
    tol: float
    pad: float
    terms: tuple[tuple[float, float, float, float, float], ...]
    envelopes: tuple[tuple[float, float], ...]

    @classmethod
    def build(cls, components: tuple["NormalComponent", ...]) -> "_Components":
        envelopes = tuple((c.mean - _SUPPORT_SIGMAS * c.sd, c.mean + _SUPPORT_SIGMAS * c.sd) for c in components)
        lo, hi = min(e[0] for e in envelopes), max(e[1] for e in envelopes)
        terms = tuple((c.weight, c.mean, c.sd, c.sd * _SQRT2, c.sd * _SQRT_2PI) for c in components)
        # the bracket pad, 1e-3 sd, is far wider than the error of the AS241 start
        return cls((lo, hi), _NEWTON_X_TOL * (hi - lo), 1e-3 * max(c.sd for c in components), terms, envelopes)


class _PanelSet(NamedTuple):
    """Read-only Gauss-Legendre panels over the whole support: the edges, and
    ``_GL_ORDER`` nodes per panel, in order, with weights that fold in the density."""

    edges: np.ndarray
    x: np.ndarray
    w: np.ndarray


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
    _comps: _Components | None = field(default=None, init=False, repr=False, compare=False)
    _panels: _PanelSet | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("normal", "mixture", "tabulated"):
            raise ValueError(f"distribution kind must be 'normal', 'mixture' or 'tabulated', got {self.kind!r}")
        if self.kind in ("normal", "mixture"):
            if not self.components:
                raise ValueError("distribution: missing normal components")
            total = math.fsum(c.weight for c in self.components)
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"mixture weights must sum to 1, got {total}")
            object.__setattr__(self, "_comps", _Components.build(self.components))
        else:
            z = _finite_tuple("tabulated: z", self.grid)
            f = _finite_tuple("tabulated: f", self.density)
            if len(z) != len(f):
                raise ValueError("tabulated: fields 'z' and 'f' must have equal length")
            if len(z) < 2:
                raise ValueError("tabulated: field 'z' needs at least two grid points")
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

    # ---- basic functionals --------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "tabulated":
            return self.grid[0], self.grid[-1]
        return self._comps.support

    def pdf(self, z):
        """Density at ``z``: float in, float out (numpy-free for normal and mixture); array in, array out."""
        scalar = self.kind != "tabulated" and isinstance(z, float)
        if not scalar:
            import numpy as np
            z = np.asarray(z, dtype=float)
        if self.kind == "tabulated":
            out = np.interp(z, self.grid, self.density, left=0.0, right=0.0)
        else:
            out = 0.0
            for w, mean, sd, _, sd_sqrt_2pi in self._comps.terms:
                out += w * _norm_pdf(z, mean, sd, sd_sqrt_2pi)
        return out if scalar or z.ndim else float(out)

    def cdf(self, z: float) -> float:
        if self.kind == "tabulated":
            if z <= self.grid[0]:
                return 0.0
            if z >= self.grid[-1]:
                return 1.0
            # the prefix mass up to z's cell plus that cell's closed form; the trapezoid mass
            # may exceed 1 by up to _TABULATED_MASS_TOL: clamp so the cdf never passes its
            # value 1 at the right end
            i = bisect_right(self.grid, z, 1, len(self.grid) - 1) - 1
            t = z - self.grid[i]
            return min(self._cells.mass[i] + t * (self.density[i] + 0.5 * self._cells.slope[i] * t), 1.0)
        out = 0.0
        for w, mean, _, sd_sqrt2, _ in self._comps.terms:
            out += w * _norm_cdf(z, mean, sd_sqrt2)
        return out

    def mean(self) -> float:
        if self.kind == "tabulated":
            return self._cells.moment[-1]
        return math.fsum(c.weight * c.mean for c in self.components)

    def quantile(self, p: float) -> float:
        """Smallest z on the effective support with cdf(z) >= p: the column kernel
        ``_quantiles`` on the one probability, after DomainError for ``p`` outside (0, 1)."""
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile defined only for probabilities in (0, 1), got {p}")
        return self._quantiles((p,))[0]

    def _quantiles(self, ps) -> list[float]:
        """``quantile`` at each of ``ps``, all in (0, 1) and unchecked, in order.

        Tabulated: the root of one cell's quadratic cdf.  Normal and mixture:
        Newton steps (one ``cdf`` call each, and the density summed as ``pdf`` sums
        it, no numpy) from the AS241 standard normal quantile, inside a bracket of
        the support, bisecting wherever Newton would leave the bracket.  The cdf is
        ``0.5 * erfc``, accurate in the lower tail, so a normal's first step lands
        within the tolerance: one ``cdf`` call from p = 1e-12 to 1 - 1e-6.  After
        ``_NEWTON_MAX_ITER`` steps the last iterate is returned.
        """
        out = []
        if self.kind == "tabulated":
            grid, f, slope, mass = self.grid, self.density, self._cells.slope, self._cells.mass
            for p in ps:
                k = bisect_left(mass, p)
                if k == len(mass):
                    out.append(grid[-1])
                elif mass[k] == p:
                    out.append(grid[k])
                else:
                    i = k - 1
                    r = p - mass[i]
                    f0 = f[i]
                    # stable root of f0*d + slope*d^2/2 = r on cell i, which holds mass >= r > 0
                    d = 2.0 * r / (f0 + math.sqrt(max(f0 * f0 + 2.0 * slope[i] * r, 0.0)))
                    out.append(min(grid[i] + d, grid[i + 1]))
            return out
        comps, cdf = self._comps, self.cdf
        (s_lo, s_hi), tol, pad, terms = comps.support, comps.tol, comps.pad, comps.terms
        for p in ps:
            # The quantile lies between the smallest and largest component quantile,
            # widened by the pad.
            z_p = _norm_quantile(p)
            q = [mean + sd * z_p for _, mean, sd, _, _ in terms]
            lo = min(max(min(q) - pad, s_lo), s_hi)
            hi = min(max(max(q) + pad, s_lo), s_hi)
            x = min(max(math.fsum([term[0] * qi for term, qi in zip(terms, q)]), lo), hi)
            for _ in range(_NEWTON_MAX_ITER):
                r = cdf(x) - p
                if r == 0.0:
                    break
                if r < 0.0:
                    lo = x
                else:
                    hi = x
                density = 0.0
                for w, mean, sd, _, sd_sqrt_2pi in terms:
                    t = (x - mean) / sd
                    density += w * (math.exp(-0.5 * t * t) / sd_sqrt_2pi)
                nxt = x - r / density if density > 0.0 else math.inf
                if abs(nxt - x) > tol and not lo < nxt < hi:
                    nxt = 0.5 * (lo + hi)
                converged, x = abs(nxt - x) <= tol, nxt
                if converged:
                    break
            out.append(x)
        return out

    def _lower_moments(self, xs) -> list[float]:
        """``partial_expectation`` at each of the finite bounds ``xs``, unchecked, in order.

        Tabulated: the prefix moment table up to the bound's cell plus that cell's
        closed form.  Normal and mixture: each component's closed form
        ``mean * Phi(t) - sd * phi(t)`` at ``t = (a - mean) / sd``, weighted and summed.
        """
        out = []
        if self.kind == "tabulated":
            grid, f, slope, cells = self.grid, self.density, self._cells.slope, self._cells
            first, last, top = grid[0], grid[-1], len(grid) - 1
            for a in xs:
                if a <= first:
                    out.append(0.0)
                elif a >= last:
                    out.append(cells.moment[-1])
                else:
                    i = bisect_right(grid, a, 1, top) - 1
                    f0, s, t = f[i], slope[i], a - grid[i]
                    mass = t * (f0 + 0.5 * s * t)
                    out.append(cells.moment[i] + (grid[i] * mass + t * t * (0.5 * f0 + s * t / 3.0)))
            return out
        terms = self._comps.terms
        for a in xs:
            acc = 0.0
            for w, mean, sd, _, _ in terms:
                t = (a - mean) / sd
                acc += w * (mean * (0.5 * math.erfc(-t / _SQRT2)) - sd * (math.exp(-0.5 * t * t) / _SQRT_2PI))
            out.append(acc)
        return out

    # ---- quadrature ----------------------------------------------------

    def _panel_set(self) -> _PanelSet:
        """The whole support's panels, built on first use: a tabulated density's cells, or
        equal panels over each component's envelope, merged (a narrow component would
        otherwise fall between another's nodes)."""
        if self._panels is None:
            import numpy as np
            if self.kind == "tabulated":
                edges = np.array(self.grid)
            else:
                parts = [np.linspace(e_lo, e_hi, _GL_PANELS + 1) for e_lo, e_hi in self._comps.envelopes]
                edges = np.concatenate(parts)
                edges.sort()
                # drop repeated edges by hand: np.unique imports numpy.ma (~20 ms) on first use
                edges = edges[np.append(edges[1:] != edges[:-1], True)]
            x, w = _panel_nodes(edges[:-1], edges[1:])
            w *= self.pdf(x)
            for a in (edges, x, w):
                a.flags.writeable = False
            object.__setattr__(self, "_panels", _PanelSet(edges, x, w))
        return self._panels

    def quad_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``x`` and weights ``w`` with the density folded in, so that the integral of
        ``f(z) g(z)`` over the support is approximated by ``w @ g(x)``: the read-only panel
        set (``_panel_set``) as it is.  ArithmeticError when the weights of a normal or
        mixture miss the mass of the support by more than ``_NODE_MASS_TOL`` (a component
        too narrow to resolve); tabulated nodes are exact on every cell.
        """
        _, x, w = self._panel_set()
        self._check_mass(*self.support, w)
        return x, w

    def _split(self, cut: float) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The nodes and weights of ``[lo, cut]`` and of ``[cut, hi]`` on the support
        ``[lo, hi]``, as ``quad_nodes`` gives the whole: both halves slice the panel set at one
        index, and only the panel that holds ``cut`` gets fresh nodes, on each side of it;
        each half's mass is checked as in ``quad_nodes``."""
        import numpy as np
        s_lo, s_hi = self.support
        cut = min(max(cut, s_lo), s_hi)
        edges, x, w = self._panel_set()
        i = int(np.searchsorted(edges, cut, "right")) - 1  # the panel holding cut, or the edge at it
        n, k = _GL_ORDER * i, _GL_ORDER
        below, above = (x[:n], w[:n]), (x[n:], w[n:])
        if edges[i] < cut:
            ex, ew = _panel_nodes(np.array([edges[i], cut]), np.array([cut, edges[i + 1]]))
            ew *= self.pdf(ex)
            below = np.concatenate((x[:n], ex[:k])), np.concatenate((w[:n], ew[:k]))
            above = np.concatenate((ex[k:], x[n + k:])), np.concatenate((ew[k:], w[n + k:]))
        self._check_mass(s_lo, cut, below[1])
        self._check_mass(cut, s_hi, above[1])
        return below, above

    def _check_mass(self, lo: float, hi: float, w: np.ndarray) -> None:
        """ArithmeticError when the node weights ``w`` on ``[lo, hi]`` of a normal or mixture
        miss the mass ``cdf(hi) - cdf(lo)`` by more than ``_NODE_MASS_TOL``."""
        if self.kind != "tabulated":
            mass, want = float(w.sum()), self.cdf(hi) - self.cdf(lo)
            if not abs(mass - want) <= _NODE_MASS_TOL:
                raise ArithmeticError(f"quadrature nodes on [{lo!r}, {hi!r}] hold mass {mass!r} where the "
                                      f"cdf gives {want!r} (shortfall {want - mass:.3g})")


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
    return dist._lower_moments((a,))[0]


def partial_expectation_closed_form(dist: ContinuousDistribution, a: float) -> float:
    """Closed-form lower partial moment for normal and mixture kinds."""
    if dist.kind == "tabulated":
        raise ValueError("closed-form partial expectation requires a normal or mixture kind")
    return dist._lower_moments((a,))[0]


def naive_value(dist: ContinuousDistribution, prefs: Preferences) -> float:
    """Ranking statistic of an agent who acts on her biased expectation alone.

    Payoffs are valued linearly, so this is just the subjective expectation
    at the agent's cutoff.
    """
    return subjective_expectation(dist, _interior_cutoff(prefs))


def sophisticated_value(dist: ContinuousDistribution, prefs: Preferences) -> float:
    """Full objective of an agent who internalizes her own bias.

    At optimal beliefs the anticipation and reference-point effects offset,
    leaving the objective mean plus an extra ``(lambda-1)`` weighting of the
    loss region below the subjective expectation (payoffs valued linearly).
    """
    expectation = naive_value(dist, prefs)
    return prefs.eta * (dist.mean() + (prefs.lambda0 - 1.0) * partial_expectation(dist, expectation))


@dataclass(frozen=True)
class ComparisonResult:
    """Both ranking values and their verdict; ``tolerance`` is the class-wide tie width."""

    value_a: float
    value_b: float
    verdict: str
    tolerance: ClassVar[float] = _VERDICT_TOL

    def to_dict(self) -> dict:
        return asdict(self)


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
