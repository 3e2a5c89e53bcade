"""Metamorphic relations: two runs of a solver checked against each other, with no oracle.

Each relation transforms the input in a way the maths says the answer must
follow, runs the solver on both inputs and compares.  The corpus is seeded,
and every tolerance below is a measured worst case with headroom.
"""

from dataclasses import replace

import numpy as np
import pytest

from bbl import (
    Asset,
    ConsumptionUtility,
    ContinuousDistribution,
    DiscreteLottery,
    Preferences,
    cutoff_probability,
    eta_for_cutoff,
    naive_alpha,
    rational_alpha,
    sophisticated_alpha,
    solve_optimal_beliefs,
    subjective_expectation,
    sweep,
    timing_preference,
)
from bbl._roots import _ROOT_X_TOL

from conftest import random_lottery
from test_portfolio import eta_corpus, mirrored, naive_corpus

AGENTS = ("rational", "naive", "sophisticated")
UTILITIES = {"log": ConsumptionUtility("log"), "power2": ConsumptionUtility("power", 2.0)}
FACTORS = (0.5, 2.0, 3.0)
BOUNDS = (-10.0, 10.0)


def normal_corpus(seed=20261020, size=16):
    """Seeded normal excess returns, each with linear gain-loss preferences whose cutoff lies in (0.1, 0.9)."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(size):
        mean, sd = rng.uniform(-0.03, 0.1), rng.uniform(0.1, 0.3)
        lam, p_star = rng.uniform(1.5, 3.0), rng.uniform(0.1, 0.9)
        cases.append((mean, sd, Preferences(eta=eta_for_cutoff(p_star, lam), lambda0=lam)))
    return cases


CORPUS = normal_corpus()


def solve(agent, r_f, mean, sd, prefs, utility, bounds):
    asset = Asset(r_f, ContinuousDistribution.normal(mean, sd))
    if agent == "rational":
        return rational_alpha(asset, utility, bounds)
    return (naive_alpha if agent == "naive" else sophisticated_alpha)(asset, prefs, utility, bounds)


@pytest.mark.parametrize("utility", UTILITIES.values(), ids=UTILITIES.keys())
@pytest.mark.parametrize("agent", AGENTS)
class TestScaleRelations:
    def test_scaled_excess_return_scales_the_share_inversely(self, agent, utility):
        """Excess return ``c x`` with bounds ``bounds / c`` gives the share ``alpha / c``:
        wealth ``r_f + (alpha / c)(c x)`` is the same random variable, and so are the
        belief cutoffs, which are quantiles of it."""
        for mean, sd, prefs in CORPUS:
            base = solve(agent, 1.0, mean, sd, prefs, utility, BOUNDS)
            for c in FACTORS:
                scaled = solve(agent, 1.0, c * mean, c * sd, prefs, utility, (BOUNDS[0] / c, BOUNDS[1] / c))
                assert scaled.converged == base.converged
                # measured worst 6.3e-13 (sophisticated, power2): two Brent roots, each within
                # _ROOT_X_TOL of the same sign change, one scaled by c; a share on the
                # wealth-domain bound scales too, its margin being 1e-10 of the bound
                assert abs(c * scaled.alpha - base.alpha) <= 2e-12

    def test_scaled_wealth_leaves_the_share_alone(self, agent, utility):
        """``r_f`` and the excess return both scaled by ``k`` leave the share unchanged:
        log and power utility are homothetic, and linear gain-loss is positively homogeneous."""
        for mean, sd, prefs in CORPUS:
            base = solve(agent, 1.0, mean, sd, prefs, utility, BOUNDS)
            for k in FACTORS:
                scaled = solve(agent, k, k * mean, k * sd, prefs, utility, BOUNDS)
                assert scaled.converged == base.converged
                # measured worst 1.2e-12 (naive) and 1.1e-15 (rational, sophisticated): two
                # Brent roots, each within _ROOT_X_TOL of the same sign change
                assert abs(scaled.alpha - base.alpha) <= 2.0 * _ROOT_X_TOL + 1e-14


def test_mirrored_excess_return_mirrors_the_naive_share():
    """Excess return ``-x`` maps the naive share ``alpha`` to ``-alpha`` with the same verdict:
    wealth ``r_f + (-alpha)(-x)`` is the same random variable, and the two belief cutoffs
    swap and change sign.  Measured worst 3.9e-14 of ``max(1, |alpha|)``: two Brent roots,
    each within _ROOT_X_TOL of the same sign change, on nodes mirrored up to rounding."""
    for asset, prefs, utility in naive_corpus() + eta_corpus():
        base = naive_alpha(asset, prefs, utility, BOUNDS)
        mirror = naive_alpha(Asset(asset.r_f, mirrored(asset.excess)), prefs, utility, BOUNDS)
        assert mirror.converged == base.converged
        assert abs(mirror.alpha + base.alpha) <= _ROOT_X_TOL * max(1.0, abs(base.alpha))


class TestNarrowMixtureComponent:
    """The rational share of ``0.5 N(0.02, 0.2) + 0.5 N(m, s)`` moves continuously as
    s shrinks: every component gets its own quadrature panels."""

    @pytest.mark.parametrize("rho,m", [(2.0, 0.01), (8.0, 0.06)])
    def test_share_continuous_as_sd_falls(self, rho, m):
        utility = ConsumptionUtility("power", rho)
        shares = [rational_alpha(Asset(1.0, ContinuousDistribution.mixture([(0.5, 0.02, 0.2), (0.5, m, float(s))])),
                                 utility, (-10.0, 10.0)).alpha for s in np.geomspace(0.02, 1e-5, 40)]
        steps = np.abs(np.diff(shares))
        # measured: at most 1.1e-3 per step, shrinking to ~2e-10 as the component becomes a point mass
        assert steps.max() <= 2e-3
        assert steps[-10:].max() <= 1e-7
        assert all(np.diff(steps[-10:]) < 0)


def random_density(rng, kind):
    """A seeded normal, two- or three-component mixture, or 25-point tabulated density on [-2, 2]."""
    if kind == "normal":
        return ContinuousDistribution.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 2.0))
    if kind == "mixture":
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
        return ContinuousDistribution.mixture([(float(w), rng.uniform(-1.0, 1.0), rng.uniform(0.05, 1.0))
                                               for w in weights])
    z = np.concatenate(([-2.0], np.sort(rng.uniform(-2.0, 2.0, 23)), [2.0]))
    f = rng.uniform(0.05, 1.0, z.size)
    f /= np.sum((f[1:] + f[:-1]) * np.diff(z)) / 2.0
    return ContinuousDistribution.tabulated(tuple(z), tuple(f))


def shifted(dist, c):
    """``dist`` moved right by ``c``: every component mean, or every grid point, plus ``c``."""
    if dist.kind == "tabulated":
        return replace(dist, grid=tuple(z + c for z in dist.grid))
    return replace(dist, components=tuple(replace(k, mean=k.mean + c) for k in dist.components))


SHIFTS = (-3.0, -0.37, 0.5, 2.0, 10.0)
PROBS = (1e-6, 1e-4, 1e-2, *np.linspace(0.05, 0.95, 19), 1.0 - 1e-2, 1.0 - 1e-4, 1.0 - 1e-6)


@pytest.mark.parametrize("kind", ["normal", "mixture", "tabulated"])
def test_mean_shift_moves_quantiles_and_prices(kind):
    """Moving a density right by ``c`` moves every quantile by ``c``, every rational and
    naive price by ``eta c``, and every sophisticated price by ``eta (c + (lambda - 1) c F(E))``:
    the lower partial moment below the moved expectation ``E + c`` gains ``c F(E)``.

    Errors as a fraction of the support width, worst measured over 40 densities per kind
    on seeds 1-10 and this one: quantiles 1.3e-12 (mixtures, at p = 1 - 1e-6, where one
    ulp of the cdf spans ~1e-11 of excess return), rational and naive prices 2.2e-15,
    sophisticated prices 6.6e-14 (narrow normals moved by 10, whose partial moment reads
    the rounding of positions near 10 through the density).
    """
    rng = np.random.default_rng({"normal": 1, "mixture": 2, "tabulated": 3}[kind] + 20261021)
    for _ in range(40):
        dist, lam = random_density(rng, kind), float(rng.uniform(1.5, 3.0))
        width = dist.support[1] - dist.support[0]
        rows = sweep(dist, lam)
        for c in SHIFTS:
            moved = shifted(dist, c)
            for p in PROBS:
                assert abs(moved.quantile(p) - dist.quantile(p) - c) <= 5e-12 * width
            for row, moved_row in zip(rows, sweep(moved, lam)):
                below = dist.cdf(subjective_expectation(dist, cutoff_probability(Preferences(row.eta, lam))))
                assert abs(moved_row.pi_rational - row.pi_rational - row.eta * c) <= 1e-14 * width
                assert abs(moved_row.pi_naive - row.pi_naive - row.eta * c) <= 1e-14 * width
                assert abs(moved_row.pi_sophisticated - row.pi_sophisticated
                           - row.eta * (c + (lam - 1.0) * c * below)) <= 3e-13 * width


@pytest.mark.parametrize("w, tol", [(0.5, 0.0), (0.25, 0.0), (0.3, 4e-15), (0.7, 4e-15)])
def test_mixture_of_identical_components_sweeps_as_the_normal(w, tol):
    """A normal split into two components ``(w, 1 - w)`` with its own mean and sd is the same
    density, so its sweep is the normal's.  Dyadic weights scale each component's terms
    exactly, and the rows are bit-identical.  Other weights round those terms: the worst row
    error, as a fraction of ``max(|mean|, sd)``, measured 1.8e-15 for w = 0.3 and 1.1e-15 for
    w = 0.7 over these 200 cases, and at most 1.6e-15 over 300 cases each on seeds 1-3.
    """
    rng = np.random.default_rng(20261022)
    for _ in range(200):
        mean, sd, lam = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.05, 3.0)), float(rng.uniform(1.05, 4.0))
        rows = sweep(ContinuousDistribution.normal(mean, sd), lam)
        split = sweep(ContinuousDistribution.mixture([(w, mean, sd), (1.0 - w, mean, sd)]), lam)
        for row, split_row in zip(rows, split):
            assert split_row[:2] == row[:2]
            for got, want in zip(split_row[2:], row[2:]):
                assert abs(got - want) <= tol * max(abs(mean), sd)


def affine_corpus(seed=20261026, size=800):
    """Seeded lotteries of 2-30 states with linear gain-loss preferences (gamma in [0, 1]), each
    with a map ``z -> a*z + b``: ``a`` log-uniform on [0.01, 100], ``b`` uniform on [-100, 100]."""
    rng = np.random.default_rng(seed)
    for _ in range(size):
        lot = random_lottery(rng, sizes=(2, 3, 4, 5, 8, 13, 21, 30))
        prefs = Preferences(eta=rng.uniform(0.2, 1.0), lambda0=rng.uniform(1.02, 4.0), gamma=rng.uniform(0.0, 1.0))
        yield lot, prefs, float(np.exp(rng.uniform(np.log(0.01), np.log(100.0)))), float(rng.uniform(-100.0, 100.0))


def test_affine_payoff_map_maps_beliefs_and_timing():
    """Under linear utility and linear gain-loss, ``z -> a*z + b`` with ``a > 0`` keeps the
    segment slopes (they depend on the probabilities only), so ``q`` stays and the expectation,
    its interval and both timing utilities map as ``x -> a*x + b``; the verdict stays wherever
    the utility gap is clear of the tie width on both sides.  ``scale`` is the largest mapped
    payoff magnitude.  Measured worst over these 800 cases and 2,000 each on seeds 1-3: ``q``
    1.1e-12 (absolute), ``u_early`` 6.0e-13 and ``u_wait`` 4.4e-13 of ``scale``; the interval
    ends are payoffs, and the expectation was one in every case, so both map exactly.
    """
    verdicts = set()
    for lot, prefs, a, b in affine_corpus():
        mapped = DiscreteLottery(tuple(a * z + b for z in lot.payoffs), lot.probs)
        assert mapped.size == lot.size
        scale = max(abs(z) for z in mapped.payoffs)
        sol, sol_m = solve_optimal_beliefs(lot, prefs), solve_optimal_beliefs(mapped, prefs)
        assert max(abs(x - y) for x, y in zip(sol.q, sol_m.q)) <= 4e-12
        assert sol_m.expectation_interval == tuple(a * e + b for e in sol.expectation_interval)
        assert abs(sol_m.subjective_expectation - (a * sol.subjective_expectation + b)) <= 1e-15 * scale
        v, v_m = timing_preference(lot, prefs), timing_preference(mapped, prefs)
        assert abs(v_m.u_early - (a * v.u_early + b)) <= 2e-12 * scale
        assert abs(v_m.u_wait - (a * v.u_wait + b)) <= 1.5e-12 * scale
        gap, gap_m = v.u_early - v.u_wait, v_m.u_early - v_m.u_wait
        if min(abs(gap), abs(gap_m)) > v.tolerance + 4e-12 * scale:
            assert v_m.verdict == v.verdict
            verdicts.add(v.verdict)
    assert verdicts == {"early", "wait"}
