import math

import numpy as np
import pytest
from hypothesis import settings

from bbl import Asset, ConsumptionUtility, ContinuousDistribution

from corpora import random_lottery, random_prefs

settings.register_profile("deterministic", derandomize=True, max_examples=100)
settings.load_profile("deterministic")


def normal_partial(mean, sd, a):
    """Lower partial moment ``E[x; x < a]`` of N(mean, sd) written out with ``math.erf``: a
    second path that shares no code with ``ContinuousDistribution._lower_moments``."""
    t = (a - mean) / sd
    return mean * 0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) - \
        sd * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


@pytest.fixture(scope="session")
def lottery_corpus():
    """500 random lotteries with matching preferences, fixed seed."""
    rng = np.random.default_rng(20240617)
    return [(random_lottery(rng), random_prefs(rng)) for _ in range(500)]


@pytest.fixture(scope="session")
def calibrated_asset():
    """Bounded-support risky asset on which all portfolio suites are well posed.

    A small lump of genuinely bad returns next to a positive bulk gives the
    power-utility problem an interior rational share, keeps the subjective
    mean return positive for pessimists (so naive fixed points exist), and
    makes the certainty-equivalent excess return change sign inside the
    cutoff range.
    """
    z = (-0.9, -0.5, 0.0, 0.1, 0.5, 0.9)
    peak = 0.92 / 0.65
    f = (0.4, 0.0, 0.0, peak, peak, 0.0)
    return Asset(1.0, ContinuousDistribution.tabulated(z, f))


@pytest.fixture(scope="session")
def power2():
    return ConsumptionUtility("power", 2.0)
