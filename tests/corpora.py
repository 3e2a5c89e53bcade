"""Seeded inputs shared by the tests and ``tools/solve_dump.py``.

Imports only public ``bbl`` names, numpy and ``dataclasses``, so the dump can run any tree's
``src`` on these inputs: a private name that a tree lacks would stop it at import.  A tier-1
test (``test_public_api.py``) keeps it that way.  Every generator is deterministic in its seed.
"""

from dataclasses import replace

import numpy as np

from bbl import (
    Asset,
    ConsumptionUtility,
    ContinuousDistribution,
    DiscreteLottery,
    GainLossSpec,
    Preferences,
    eta_for_cutoff,
)

NORMAL_ASSET = Asset(1.0, ContinuousDistribution.normal(0.05, 0.2))
# the bounds of tools/solve_dump.py: whole and one-signed ranges, bounds at 0, fixed shares,
# and (-0.5, 0.7), whose clipped upper bound moves the knife edge of a zero-mean asset
BOUNDS = [(-10.0, 10.0), (0.0, 10.0), (-10.0, 0.0), (0.0, 0.0), (0.3, 0.3), (0.3, 1.0),
          (-1.0, -0.3), (-0.5, 0.5), (-0.5, 0.7)]
# zero-mean symmetric excess returns, on which the slope at 0 is rounding
SYMMETRIC = [
    ContinuousDistribution.normal(0.0, 0.2),
    ContinuousDistribution.normal(0.0, 1.0),
    ContinuousDistribution.mixture([(0.5, -0.3, 0.1), (0.5, 0.3, 0.1)]),
    ContinuousDistribution.tabulated((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0)),  # tent
    ContinuousDistribution.tabulated((-1.0, 1.0), (0.5, 0.5)),  # uniform
]


def random_lottery(rng, sizes=(2, 3, 4), payoff_hi=10.0):
    size = int(rng.choice(sizes))
    payoffs = np.sort(rng.uniform(0.0, payoff_hi, size))
    while len(set(payoffs)) < size:
        payoffs = np.sort(rng.uniform(0.0, payoff_hi, size))
    probs = rng.dirichlet(np.ones(size))
    probs = probs / probs.sum()
    return DiscreteLottery(tuple(payoffs), tuple(probs))


def random_prefs(rng):
    """Linear gain-loss preferences with lambda >= 1/eta (nonnegative cutoff)."""
    eta = rng.uniform(0.3, 1.0)
    lam = rng.uniform(max(1.02, 1.0 / eta), 4.0)
    return Preferences(eta=eta, lambda0=lam)


def random_excess(rng, kind):
    """A seeded normal, two-component mixture or 13-point tabulated excess return."""
    if kind == "normal":
        return ContinuousDistribution.normal(rng.uniform(-0.03, 0.1), rng.uniform(0.1, 0.3))
    if kind == "mixture":
        w = rng.uniform(0.05, 0.3)
        return ContinuousDistribution.mixture([(1.0 - w, rng.uniform(0.0, 0.12), rng.uniform(0.08, 0.2)),
                                               (w, rng.uniform(-0.4, -0.05), rng.uniform(0.05, 0.2))])
    z = np.linspace(-0.9, 0.9, 13)
    f = rng.uniform(0.0, 1.0, z.size) * np.exp(-((z - 0.1) / 0.5) ** 2)
    f /= np.sum((f[1:] + f[:-1]) * np.diff(z)) / 2.0
    return ContinuousDistribution.tabulated(tuple(z), tuple(f))


def mirrored(dist):
    """``dist`` reflected about 0: every component mean negated, or the tabulated grid
    negated and reversed with its density."""
    if dist.kind == "tabulated":
        return replace(dist, grid=tuple(-z for z in reversed(dist.grid)), density=dist.density[::-1])
    return replace(dist, components=tuple(replace(k, mean=-k.mean) for k in dist.components))


def naive_corpus(seed=20261018, per_cell=6):
    """Seeded (asset, prefs, utility) triples: normal, two-component mixture and
    tabulated excess returns, each with linear, log and power utility."""
    rng = np.random.default_rng(seed)
    cases = []
    for kind in ("normal", "mixture", "tabulated"):
        for utility_kind in ("linear", "log", "power"):
            for _ in range(per_cell):
                excess = random_excess(rng, kind)
                utility = (ConsumptionUtility("power", float(rng.choice([0.5, 2.0, 3.0])))
                           if utility_kind == "power" else ConsumptionUtility(utility_kind))
                p_star, lam = rng.uniform(0.1, 0.9), rng.uniform(1.5, 3.0)
                prefs = Preferences(eta=eta_for_cutoff(p_star, lam), lambda0=lam)
                cases.append((Asset(1.0, excess), prefs, utility))
    return cases


def eta_corpus(seed=20261019, per_cell=3):
    """Seeded (asset, prefs, utility) triples at eta in [0.5, 0.9]: normal, two-component
    mixture and tabulated excess returns, each with linear, log and power rho = 2 utility."""
    rng = np.random.default_rng(seed)
    cases = []
    for kind in ("normal", "mixture", "tabulated"):
        for utility in (ConsumptionUtility(), ConsumptionUtility("log"), ConsumptionUtility("power", 2.0)):
            for _ in range(per_cell):
                asset = Asset(1.0, random_excess(rng, kind))
                for eta in rng.uniform(0.5, 0.9, 3):
                    lam = float(rng.uniform(1.0 / eta + 0.05, 3.5))
                    cases.append((asset, Preferences(eta=float(eta), lambda0=lam), utility))
    return cases


def crossing_excess(rng, kind):
    """A seeded well-separated bimodal mixture, skewed three-component mixture (two tail
    components on one side) or tabulated density with 5 to 25 random values."""
    if kind == "bimodal":
        w = rng.uniform(0.2, 0.8)
        return ContinuousDistribution.mixture([(1.0 - w, rng.uniform(-0.6, -0.1), rng.uniform(0.02, 0.1)),
                                               (w, rng.uniform(0.1, 0.6), rng.uniform(0.02, 0.1))])
    if kind == "skewed":
        w0, side = rng.uniform(0.6, 0.9), rng.choice([-1.0, 1.0])
        w1 = (1.0 - w0) * rng.uniform(0.2, 0.8)
        return ContinuousDistribution.mixture([(w0, rng.uniform(-0.05, 0.1), rng.uniform(0.05, 0.2)),
                                               (w1, side * rng.uniform(0.2, 0.4), rng.uniform(0.05, 0.2)),
                                               (1.0 - w0 - w1, side * rng.uniform(0.4, 0.8), rng.uniform(0.05, 0.3))])
    n = int(rng.integers(5, 26))
    z = np.linspace(rng.uniform(-0.9, -0.1), rng.uniform(0.1, 0.9), n)
    f = rng.uniform(0.0, 1.0, n)
    f /= np.sum((f[1:] + f[:-1]) * np.diff(z)) / 2.0
    return ContinuousDistribution.tabulated(tuple(z), tuple(f))


def crossing_corpus(seed=20261020, per_cell=170):
    """Seeded (asset, prefs, utility) triples meant to make ``h`` cross 0 twice on a sign region
    if it can: ``crossing_excess`` densities under linear, log and power utility with rho
    log-uniform in [0.3, 10], at eta in [0.3, 0.99] and lambda up to 6."""
    rng = np.random.default_rng(seed)
    cases = []
    for kind in ("bimodal", "skewed", "tabulated"):
        for utility_kind in ("linear", "log", "power"):
            for _ in range(per_cell):
                excess = crossing_excess(rng, kind)
                utility = (ConsumptionUtility("power", float(np.exp(rng.uniform(np.log(0.3), np.log(10.0)))))
                           if utility_kind == "power" else ConsumptionUtility(utility_kind))
                eta = float(rng.uniform(0.3, 0.99))
                prefs = Preferences(eta=eta, lambda0=float(rng.uniform(1.0 / eta + 0.05, 6.0)))
                cases.append((Asset(1.0, excess), prefs, utility))
    return cases


def threshold_corpus(seed, count):
    """``count`` each of normal, two-component mixture and tabulated densities."""
    rng = np.random.default_rng(seed)
    dists = []
    for _ in range(count):
        dists.append(ContinuousDistribution.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 3.0)))
        w = rng.uniform(0.1, 0.9)
        dists.append(ContinuousDistribution.mixture([
            (w, rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.0)),
            (1.0 - w, rng.uniform(-3.0, 1.0), rng.uniform(0.1, 2.0)),
        ]))
        z = np.linspace(rng.uniform(-6.0, -1.0), rng.uniform(1.0, 6.0), int(rng.choice((11, 51, 601))))
        f = np.exp(-0.5 * ((z - rng.uniform(-1.5, 1.5)) / rng.uniform(0.3, 2.0)) ** 2) + 0.01
        f /= np.sum((f[1:] + f[:-1]) * np.diff(z)) / 2.0
        dists.append(ContinuousDistribution.tabulated(z.tolist(), f.tolist()))
    return dists


def sweep_corpus(seed, count):
    """``count`` each of normal, two-component mixture and 601-point tabulated densities,
    each with its own lambda."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.uniform(0.1, 0.9)
        z = np.linspace(rng.uniform(-6.0, -3.0), rng.uniform(3.0, 6.0), 601)
        f = np.exp(-0.5 * ((z - rng.uniform(-1.5, 1.5)) / rng.uniform(0.3, 2.0)) ** 2) + 0.01
        f /= np.sum((f[1:] + f[:-1]) * np.diff(z)) / 2.0
        for dist in (ContinuousDistribution.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 3.0)),
                     ContinuousDistribution.mixture([(w, rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.0)),
                                                     (1.0 - w, rng.uniform(-3.0, 1.0), rng.uniform(0.1, 2.0))]),
                     ContinuousDistribution.tabulated(z.tolist(), f.tolist())):
            out.append((dist, float(rng.uniform(1.05, 4.0))))
    return out


def timing_corpus(seed=20261026, size=600, sizes=(2, 3, 4, 5, 8, 13, 21, 30)):
    """Seeded lotteries of ``sizes`` states, each with linear (two in three) or general
    gain-loss preferences and gamma in [0, 1]."""
    rng = np.random.default_rng(seed)
    for k in range(size):
        lot = random_lottery(rng, sizes=sizes)
        gamma = float(rng.choice((0.0, 1.0, rng.uniform(0.0, 1.0))))
        if k % 3:
            prefs = replace(random_prefs(rng), gamma=gamma)
        else:
            eta = rng.uniform(0.5, 0.9)
            spec = GainLossSpec.general(rng.uniform(0.8, min(1.2, 0.98 / eta)), np.exp(rng.uniform(-0.7, 3.0)))
            prefs = Preferences(eta=eta, lambda0=rng.uniform(1.5, 3.5), gamma=gamma, gain_loss=spec)
        yield lot, prefs
