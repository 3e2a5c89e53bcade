"""Independent references for the output checks.

Nothing here calls a bbl solver: objectives are summed directly from the
formulas in bbl's docstrings, normal and mixture quantiles are bisected on a
``math.erf`` cdf, and a tabulated density is integrated exactly cell by cell
(its density is linear on each cell).  Comparisons use ``close``.
"""

from __future__ import annotations

import math

import numpy as np

ABS_TOL = 1e-8
REL_TOL = 1e-8


def close(a: float, b: float, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= abs_tol + rel_tol * max(abs(a), abs(b))


# ---- discrete beliefs ------------------------------------------------------


def gain_loss(x: np.ndarray, prefs: dict) -> np.ndarray:
    """mu(x) for the linear or general gain-loss kind."""
    x = np.asarray(x, dtype=float)
    lam = prefs["lambda"]
    spec = prefs.get("gain_loss", {"kind": "linear"})
    if spec["kind"] == "linear":
        return np.where(x >= 0, x, lam * x)
    beta, kappa = spec["beta"], spec["kappa"]
    t = np.maximum(-x, 0.0)
    loss = -beta * (lam * t + (lam - 1.0) * np.expm1(-kappa * t) / kappa)
    return np.where(x >= 0, beta * x, loss)


def utility_at(lottery: dict, prefs: dict, expectation):
    """U(E) = E + eta * sum_s p_s mu(u_s - E), for a scalar or an array of E."""
    u = np.asarray(lottery["payoffs"], dtype=float)
    p = np.asarray(lottery["probs"], dtype=float)
    e = np.asarray(expectation, dtype=float)
    gl = gain_loss(u[None, :] - np.atleast_1d(e)[:, None], prefs) @ p
    out = np.atleast_1d(e) + prefs["eta"] * gl
    return float(out[0]) if e.ndim == 0 else out


def best_utility(lottery: dict, prefs: dict, points: int = 20001) -> float:
    """Maximum of U over the expectation range.

    Linear kind: U is piecewise linear with kinks at the payoffs, so the best
    payoff is exact.  General kind: a dense scan, a lower bound on the maximum.
    """
    u = sorted(lottery["payoffs"])
    grid = np.asarray(u, dtype=float)
    if prefs.get("gain_loss", {"kind": "linear"})["kind"] != "linear":
        grid = np.concatenate([grid, np.linspace(u[0], u[-1], points)])
    return float(np.max(utility_at(lottery, prefs, grid)))


def utility_early(lottery: dict, prefs: dict, q) -> float:
    u = np.asarray(lottery["payoffs"], dtype=float)
    q = np.asarray(q, dtype=float)
    e = float(q @ u)
    return e + prefs.get("gamma", 1.0) * prefs["eta"] * float(q @ gain_loss(u - e, prefs))


def simplex_ok(q, size: int) -> bool:
    return len(q) == size and min(q) >= -1e-12 and abs(math.fsum(q) - 1.0) <= 1e-9


# ---- continuous distributions -----------------------------------------------


class Density:
    """cdf, quantile, mean and lower partial moment of a distribution dict."""

    def __init__(self, spec: dict):
        if "tabulated" in spec:
            self.z = [float(v) for v in spec["tabulated"]["z"]]
            self.f = [float(v) for v in spec["tabulated"]["f"]]
            self.comps = None
            mass, moment = [0.0], [0.0]
            for i in range(len(self.z) - 1):
                m, mm = self._cell(i, self.z[i + 1] - self.z[i])
                mass.append(mass[-1] + m)
                moment.append(moment[-1] + mm)
            self.mass, self.moment = mass, moment
        else:
            comps = spec["mixture"] if "mixture" in spec else [dict(spec["normal"], w=1.0)]
            self.comps = [(c["w"], c["mean"], c["sd"]) for c in comps]

    def _cell(self, i: int, t: float) -> tuple[float, float]:
        """Mass and first moment of cell ``i`` from its left edge to ``z_i + t``."""
        z0, f0 = self.z[i], self.f[i]
        s = (self.f[i + 1] - f0) / (self.z[i + 1] - z0)
        mass = f0 * t + 0.5 * s * t * t
        moment = z0 * mass + 0.5 * f0 * t * t + s * t ** 3 / 3.0
        return mass, moment

    def _locate(self, x: float) -> int:
        lo, hi = 0, len(self.z) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.z[mid] <= x:
                lo = mid
            else:
                hi = mid
        return lo

    def cdf(self, x: float) -> float:
        if self.comps is not None:
            return math.fsum(w * 0.5 * (1.0 + math.erf((x - m) / (s * math.sqrt(2.0))))
                             for w, m, s in self.comps)
        if x <= self.z[0]:
            return 0.0
        if x >= self.z[-1]:
            return 1.0
        i = self._locate(x)
        return self.mass[i] + self._cell(i, x - self.z[i])[0]

    def quantile(self, p: float) -> float:
        if self.comps is None:
            i = max(j for j in range(len(self.mass) - 1) if self.mass[j] <= p)
            r = p - self.mass[i]
            f0 = self.f[i]
            s = (self.f[i + 1] - f0) / (self.z[i + 1] - self.z[i])
            root = math.sqrt(max(f0 * f0 + 2.0 * s * r, 0.0))
            return self.z[i] + (2.0 * r / (f0 + root) if f0 + root > 0 else 0.0)
        lo = min(m - 8.0 * s for _, m, s in self.comps)
        hi = max(m + 8.0 * s for _, m, s in self.comps)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13:
                break
        return 0.5 * (lo + hi)

    def mean(self) -> float:
        if self.comps is not None:
            return math.fsum(w * m for w, m, _ in self.comps)
        return self.moment[-1]

    def partial_expectation(self, a: float) -> float:
        """Exact lower partial moment; tabulated kind only (normals use bbl's closed form)."""
        if a <= self.z[0]:
            return 0.0
        if a >= self.z[-1]:
            return self.moment[-1]
        i = self._locate(a)
        return self.moment[i] + self._cell(i, a - self.z[i])[1]
