import math
import sys

import numpy as np
import pytest

from bbl import (
    DiscreteLottery,
    GainLossSpec,
    Preferences,
    gain_loss,
    general_residual_solve,
    grid_search_beliefs,
    loss_multiplier,
    solve_optimal_beliefs,
)

from corpora import random_lottery


def general_prefs(eta, lam, beta=1.0, kappa=1e6):
    return Preferences(eta=eta, lambda0=lam, gain_loss=GainLossSpec.general(beta, kappa))


def residual(lottery, prefs, expectation):
    """The residual summed in payoff order, as the solver sums it: nondecreasing in
    ``expectation`` in floating point too, so a sign change brackets the root."""
    eta_beta = prefs.eta * prefs.gain_loss.beta
    acc = 0.0
    for p, u in zip(lottery.probs, lottery.utilities):
        if u < expectation:
            acc += p * (loss_multiplier(expectation - u, prefs) - 1.0)
    return acc - (1.0 - eta_beta) / eta_beta


def general_corpus(seed, count):
    """Lotteries of 2-100 states on [0, 10] or [0, 1000] with general preferences,
    ``count`` for each kappa in {0.01, 0.5, 5, 1e6}."""
    rng = np.random.default_rng(seed)
    cases = []
    for kappa in (0.01, 0.5, 5.0, 1e6):
        for _ in range(count):
            lot = random_lottery(rng, (2, 3, 5, 10, 30, 100), float(rng.choice((10.0, 1000.0))))
            eta = rng.uniform(0.2, 1.0)
            beta = rng.uniform(0.3, 0.999 / eta)
            cases.append((lot, general_prefs(eta, rng.uniform(1.05, 5.0), beta=beta, kappa=kappa)))
    return cases


def utility_at(lottery, prefs, expectation):
    return expectation + prefs.eta * math.fsum(
        p * gain_loss(u - expectation, prefs) for p, u in zip(lottery.probs, lottery.utilities))


CORPUS = general_corpus(41, 12)


@pytest.mark.parametrize("lot, prefs", CORPUS)
def test_corpus_returns_the_residual_root_or_the_top_corner(lot, prefs):
    u = lot.utilities
    sol = general_residual_solve(lot, prefs)
    e = sol.subjective_expectation
    if residual(lot, prefs, u[-1]) <= 0.0:
        assert e == u[-1]
    else:
        width = 1e-15 * max(1.0, abs(u[0]), abs(u[-1])) + 4.0 * sys.float_info.epsilon * abs(e)
        assert u[0] <= e < u[-1]
        assert residual(lot, prefs, max(e - width, u[0])) <= 0.0
        assert residual(lot, prefs, min(e + width, u[-1])) >= 0.0
    grid = np.concatenate([np.linspace(u[0], u[-1], 2001), u])
    best = max(utility_at(lot, prefs, x) for x in grid.tolist())
    assert sol.total_utility >= best - 1e-12 * max(1.0, abs(best))


def test_constant_lambda_limit_matches_linear():
    rng = np.random.default_rng(31)
    for _ in range(40):
        lot = random_lottery(rng)
        eta = rng.uniform(0.3, 0.95)
        lam = rng.uniform(max(1.02, 1.0 / eta), 4.0)
        linear = solve_optimal_beliefs(lot, Preferences(eta=eta, lambda0=lam))
        general = general_residual_solve(lot, general_prefs(eta, lam))
        lo, hi = linear.expectation_interval
        assert lo - 1e-3 <= general.subjective_expectation <= hi + 1e-3


def test_beta_scales_like_effective_weight():
    # constant-lambda general weight eta*beta behaves like a linear agent with that weight
    lot = DiscreteLottery((0.0, 2.0, 7.0), (0.3, 0.4, 0.3))
    eta, beta, lam = 0.7, 1.2, 2.25
    general = general_residual_solve(lot, general_prefs(eta, lam, beta=beta))
    linear = solve_optimal_beliefs(lot, Preferences(eta=eta * beta, lambda0=lam))
    assert general.subjective_expectation == pytest.approx(
        linear.subjective_expectation, abs=1e-3)


def test_interior_root_satisfies_residual():
    prefs = general_prefs(0.7, 2.25, beta=0.9, kappa=2.0)
    lot = DiscreteLottery((0.0, 2.0, 5.0, 9.0), (0.2, 0.3, 0.3, 0.2))
    sol = general_residual_solve(lot, prefs)
    assert lot.utilities[0] < sol.subjective_expectation < lot.utilities[-1]
    assert abs(residual(lot, prefs, sol.subjective_expectation)) <= 1e-8


def test_corner_reported_when_no_interior_root():
    # tiny loss-side mass keeps the residual below its threshold everywhere
    prefs = general_prefs(0.75, 2.25, beta=1.1, kappa=1e6)
    lot = DiscreteLottery((0.0, 1.0), (0.15, 0.85))
    sol = general_residual_solve(lot, prefs)
    assert sol.subjective_expectation == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_two_state_cutoff_rule_constant_lambda(p):
    # with lambda effectively constant, beliefs jump to 1 exactly when the
    # success chance clears the generalised cutoff
    prefs = general_prefs(0.75, 2.25, beta=1.1, kappa=1e6)
    eta_beta = prefs.eta * prefs.gain_loss.beta
    lam_p = loss_multiplier(p, prefs)
    cutoff = (eta_beta * lam_p - 1.0) / (eta_beta * (lam_p - 1.0))
    lot = DiscreteLottery((0.0, 1.0), (1.0 - p, p))
    sol = general_residual_solve(lot, prefs)
    if p > cutoff:
        assert sol.subjective_expectation == pytest.approx(1.0, abs=1e-3)
    else:
        assert sol.subjective_expectation == pytest.approx(0.0, abs=1e-3)


@pytest.mark.parametrize("kappa", [0.5, 5.0, 1e6])
@pytest.mark.parametrize("p", [0.1, 0.35, 0.6, 0.85])
def test_two_state_matches_brute_force(p, kappa):
    prefs = general_prefs(0.75, 2.25, beta=1.1, kappa=kappa)
    lot = DiscreteLottery((0.0, 1.0), (1.0 - p, p))
    sol = general_residual_solve(lot, prefs)
    q_best, u_best = grid_search_beliefs(lot, prefs, step=0.01)
    assert sol.total_utility >= u_best - 1e-9
    assert abs(sol.subjective_expectation - q_best[1]) <= 0.01 + 1e-9


def test_solve_dispatches_general():
    prefs = general_prefs(0.7, 2.25, beta=0.9, kappa=2.0)
    lot = DiscreteLottery((0.0, 2.0, 5.0), (0.3, 0.4, 0.3))
    assert solve_optimal_beliefs(lot, prefs) == general_residual_solve(lot, prefs)


def test_general_solver_rejects_linear_spec():
    with pytest.raises(ValueError):
        general_residual_solve(DiscreteLottery((0.0, 1.0), (0.5, 0.5)),
                               Preferences(eta=0.8, lambda0=2.25))


def test_general_solver_refuses_one_payoff():
    with pytest.raises(ValueError, match="two distinct payoffs"):
        solve_optimal_beliefs(DiscreteLottery((1.0, 1.0), (0.5, 0.5)), general_prefs(0.7, 2.25, beta=0.9, kappa=2.0))
