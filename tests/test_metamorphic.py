"""Metamorphic relations: two runs of a solver checked against each other, with no oracle.

Each relation transforms the input in a way the maths says the answer must
follow, runs the solver on both inputs and compares.  The corpus is seeded,
and every tolerance below is a measured worst case with headroom.
"""

import numpy as np
import pytest

from bbl import (
    Asset,
    ConsumptionUtility,
    ContinuousDistribution,
    Preferences,
    eta_for_cutoff,
    naive_alpha,
    rational_alpha,
    sophisticated_alpha,
)
from bbl._roots import _ROOT_X_TOL

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
                # measured worst 2.0e-10, at shares on the wealth-domain bound: the bound's
                # safety margin 1e-10 * max(1, |bound|) does not scale with the share
                assert abs(c * scaled.alpha - base.alpha) <= 1e-9

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
