"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is stated inline; runtime budgets are enforced.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bbl import (
    Asset,
    ConsumptionUtility,
    ContinuousDistribution,
    DiscreteLottery,
    GainLossSpec,
    Preferences,
    certainty_equivalent_excess,
    compare,
    cutoff_probability,
    default_grid,
    eta_for_cutoff,
    gain_probability,
    general_residual_solve,
    grid_search_alpha,
    grid_search_beliefs,
    loss_multiplier,
    naive_alpha,
    partial_expectation,
    partial_expectation_closed_form,
    rational_alpha,
    simpson_integral,
    solve_optimal_beliefs,
    sophisticated_alpha,
    subjective_expectation,
    sweep,
    sweep_thresholds,
    timing_preference,
    total_utility,
    utility_early,
    utility_wait,
)
from bbl.portfolio import rational_objective

from conftest import normal_partial
from corpora import random_lottery, random_prefs


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} [{description}]: PASS ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds


def prefs_for(p_star, lam=2.25):
    return Preferences(eta=eta_for_cutoff(p_star, lam), lambda0=lam)


def test_criterion_1_cutoff_closed_form():
    with criterion(1, "cutoff closed form and inverse", 1.0):
        assert cutoff_probability(Preferences(1.0, 2.25)) == pytest.approx(1.0, abs=1e-12)
        assert cutoff_probability(Preferences(0.8, 2.25)) == pytest.approx(0.8, abs=1e-12)
        assert cutoff_probability(Preferences(1.0 / 2.25, 2.25)) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(101)
        for _ in range(100):
            lam = rng.uniform(1.05, 5.0)
            eta = rng.uniform(1.0 / lam, 1.0)
            p_star = cutoff_probability(Preferences(eta, lam))
            assert eta_for_cutoff(p_star, lam) == pytest.approx(eta, abs=1e-12)


def test_criterion_2_two_state_table():
    with criterion(2, "two-state solution table", 1.0):
        prefs = Preferences(0.8, 2.25)
        high = DiscreteLottery((0.0, 1.0), (0.1, 0.9))
        sol = solve_optimal_beliefs(high, prefs)
        assert sol.q[1] == pytest.approx(1.0, abs=1e-12)
        assert sol.total_utility == pytest.approx(0.82, abs=1e-12)
        assert total_utility(high, high.probs, prefs) == pytest.approx(0.81, abs=1e-12)
        low = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
        assert solve_optimal_beliefs(low, prefs).q[1] == pytest.approx(0.0, abs=1e-12)


def test_criterion_3_biased_beliefs_dominate(lottery_corpus):
    with criterion(3, "solver beats rational beliefs and simplex oracle", 60.0):
        for lot, prefs in lottery_corpus:
            sol = solve_optimal_beliefs(lot, prefs)
            assert sol.total_utility >= total_utility(lot, lot.probs, prefs) - 1e-12
            _, oracle = grid_search_beliefs(lot, prefs, step=0.02)
            assert sol.total_utility >= oracle - 1e-12


def test_criterion_4_transfer_and_sign_rules(lottery_corpus):
    with criterion(4, "transfer monotonicity and bias direction", 60.0):
        eps = 1e-4
        rng = np.random.default_rng(104)
        transfers = 0
        for lot, prefs in lottery_corpus:
            p_star = cutoff_probability(prefs)
            u = np.array(lot.utilities)

            # direction of the optimal bias
            sol = solve_optimal_beliefs(lot, prefs)
            gap0 = gain_probability(lot, lot.mean_utility) - p_star
            diff = sol.subjective_expectation - lot.mean_utility
            if abs(gap0) <= 1e-12:
                assert abs(diff) <= 1e-12
            else:
                assert diff * gap0 > 0

            # epsilon transfers from every belief state that is not at a tie
            for q in (np.array(lot.probs), rng.dirichlet(np.ones(lot.size))):
                q = q / q.sum()
                expectation = float(q @ u)
                p_plus = gain_probability(lot, expectation)
                if abs(p_plus - p_star) <= 1e-9:
                    continue
                up = p_plus > p_star
                base = total_utility(lot, tuple(q), prefs)
                for low in range(lot.size):
                    for high in range(low + 1, lot.size):
                        src, dst = (low, high) if up else (high, low)
                        if q[src] < eps:
                            continue
                        q2 = q.copy()
                        q2[src] -= eps
                        q2[dst] += eps
                        e2 = float(q2 @ u)
                        if up and gain_probability(lot, e2) <= p_star:
                            continue
                        strict = math.fsum(
                            p for p, us in zip(lot.probs, lot.utilities) if us > e2)
                        if not up and strict >= p_star:
                            continue
                        assert total_utility(lot, tuple(q2), prefs) >= base - 1e-12
                        transfers += 1
        assert transfers > 2000


def test_criterion_5_timing(lottery_corpus):
    with criterion(5, "information-timing verdicts", 30.0):
        # verdict equals the gain-mass comparison at gamma = 1
        rng = np.random.default_rng(105)
        for _ in range(500):
            lot = random_lottery(rng, sizes=(2, 3, 4, 5))
            prefs = random_prefs(rng)
            gap = gain_probability(lot, lot.mean_utility) - cutoff_probability(prefs)
            verdict = timing_preference(lot, prefs).verdict
            if abs(gap) <= 1e-12:
                assert verdict == "indifferent"
            else:
                assert verdict == ("early" if gap > 0 else "wait")

        # two-state closed-form sign equivalence on a 99x99 grid
        prefs = Preferences(0.8, 2.25)
        grid = np.linspace(0.01, 0.99, 99)
        for p in grid:
            lot = DiscreteLottery((0.0, 1.0), (1.0 - p, p))
            for q in grid:
                beliefs = (1.0 - q, q)
                diff = utility_early(lot, beliefs, prefs) - utility_wait(lot, beliefs, prefs)
                closed = (q - p) * (1.0 - q) - 2.25 * (p - q) * q
                if abs(closed) <= 1e-12:
                    assert abs(diff) <= 1e-12
                else:
                    assert diff * closed > 0

        # half-weighted prospective feelings with up-biased beliefs: always early
        half = Preferences(0.8, 2.25, gamma=0.5)
        for p in grid:
            lot = DiscreteLottery((0.0, 1.0), (1.0 - p, p))
            for q in grid[grid > p]:
                beliefs = (1.0 - q, q)
                assert utility_early(lot, beliefs, half) > utility_wait(lot, beliefs, half)


def test_criterion_6_continuous_kernel():
    with criterion(6, "continuous belief kernel", 10.0):
        n11 = ContinuousDistribution.normal(1.0, 1.0)
        assert subjective_expectation(n11, 0.8) == pytest.approx(0.158379, abs=1e-6)
        for dist in (n11, ContinuousDistribution.normal(0.0, 2.0),
                     ContinuousDistribution.mixture([(0.6, -1.0, 0.5), (0.4, 1.5, 1.0)])):
            lo, hi = dist.support
            for a in np.linspace(lo, hi, 50):
                assert partial_expectation(dist, float(a)) == pytest.approx(
                    simpson_integral(lambda z: z * dist.pdf(z), lo, float(a), 4001), abs=1e-8)
        values = [subjective_expectation(n11, float(p)) for p in np.arange(0.05, 0.951, 0.01)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_criterion_7_spread_preference():
    with criterion(7, "symmetric spread verdicts", 5.0):
        wide = ContinuousDistribution.normal(0.0, 2.0)
        narrow = ContinuousDistribution.normal(0.0, 1.0)
        for p_star in np.arange(0.05, 0.50, 0.05):
            assert compare(wide, narrow, prefs_for(float(p_star)), "naive").verdict == "prefer_a"
        for p_star in np.arange(0.55, 1.00, 0.05):
            assert compare(wide, narrow, prefs_for(float(p_star)), "naive").verdict == "prefer_b"
        tie = compare(wide, narrow, prefs_for(0.5), "naive")
        assert tie.verdict == "indifferent" and tie.tolerance == 1e-10


def test_criterion_8_portfolio(calibrated_asset, power2):
    with criterion(8, "portfolio solvers", 120.0):
        # rational solver against the dense scan, three utility kinds
        normal_asset = Asset(1.0, ContinuousDistribution.normal(0.05, 0.2))
        bounds = (-10.0, 10.0)
        for utility in (ConsumptionUtility(), ConsumptionUtility("log"), power2):
            sol = rational_alpha(normal_asset, utility, bounds)
            alpha_oracle, _ = grid_search_alpha(rational_objective(normal_asset, utility), bounds)
            assert abs(sol.alpha - alpha_oracle) <= 20.0 / 2000.0

        # naive orderings at the four cutoffs on the calibrated asset
        rational = rational_alpha(calibrated_asset, power2)
        r0 = (power2.inverse(rational.value) - calibrated_asset.r_f) / rational.alpha
        p_plus0 = 1.0 - calibrated_asset.excess.cdf(r0)
        for p_star in (0.1, 0.3, 0.7, 0.9):
            sol = naive_alpha(calibrated_asset, prefs_for(p_star), power2)
            assert sol.converged
            if p_plus0 > p_star:  # optimist: never strictly inside (0, alpha_RE)
                assert not 0.0 < sol.alpha < rational.alpha
            else:  # pessimist: long but not beyond rational
                assert 0.0 < sol.alpha <= rational.alpha

        # sophisticated share moves against the certainty-equivalent sign
        checked_signs = set()
        for p_star in [round(0.05 * k, 2) for k in range(1, 20)]:
            sol = sophisticated_alpha(calibrated_asset, prefs_for(p_star), power2)
            if sol.alpha <= 0:
                continue
            r_ce = certainty_equivalent_excess(calibrated_asset, sol.alpha, prefs_for(p_star), power2)
            if abs(r_ce) <= 0.05:
                continue
            bumped = sophisticated_alpha(calibrated_asset, prefs_for(p_star + 0.01), power2)
            fd = bumped.alpha - sol.alpha
            assert fd * (-r_ce) > 0
            checked_signs.add(r_ce > 0)
        assert checked_signs == {True, False}


def test_criterion_9_figure_sweep():
    with criterion(9, "equilibrium price sweep", 10.0):
        n11 = ContinuousDistribution.normal(1.0, 1.0)
        points = sweep(n11, 2.25, default_grid(0.05, 0.95, 0.01))
        assert len(points) == 91

        naive = [pt.pi_naive for pt in points]
        assert all(b < a for a, b in zip(naive, naive[1:]))

        soph = np.array([pt.pi_sophisticated for pt in points])
        diffs = np.diff(soph)
        assert int(np.sum(np.sign(diffs[:-1]) != np.sign(diffs[1:]))) == 1
        minimum = points[int(np.argmin(soph))]
        assert 0.55 <= minimum.p_star <= 0.70

        assert soph.max() <= 1.0 + 1e-6

        gaps = [pt.pi_sophisticated - pt.pi_rational for pt in points]
        flips = [(a, b) for a, b in zip(points, points[1:])
                 if ((a.pi_sophisticated - a.pi_rational) > 0)
                 != ((b.pi_sophisticated - b.pi_rational) > 0)]
        assert len(flips) == 1
        crossing = sweep_thresholds(n11, 2.25)["loss_moment_sign_change"]
        assert flips[0][0].p_star <= crossing <= flips[0][1].p_star
        for pt in points:
            # the moment from math.erf, a path apart from the sweep's _lower_moments; the
            # two agree within 1e-14 (measured worst on this grid: 2.8e-17)
            a = subjective_expectation(n11, pt.p_star)
            moment = normal_partial(1.0, 1.0, a)
            assert moment == pytest.approx(partial_expectation_closed_form(n11, a), rel=0, abs=1e-14)
            if abs(moment) > 1e-9:
                assert ((pt.pi_sophisticated - pt.pi_rational) > 0) == (moment > 0)

        at_half = {round(pt.p_star, 6): pt for pt in points}[0.5]
        assert at_half.pi_sophisticated == pytest.approx(0.69316, abs=1e-4)
        # oracle value: eta = 1/(lambda - 0.5(lambda-1)) and the median sits at the mean
        assert at_half.pi_naive == pytest.approx(1.0 / (2.25 - 0.625), abs=1e-6)


def test_criterion_10_general_gain_loss():
    with criterion(10, "general gain-loss solver", 60.0):
        rng = np.random.default_rng(110)
        for _ in range(100):
            lot = random_lottery(rng)
            eta = rng.uniform(0.3, 0.95)
            lam = rng.uniform(max(1.02, 1.0 / eta), 4.0)
            linear = solve_optimal_beliefs(lot, Preferences(eta, lam))
            prefs = Preferences(eta, lam, gain_loss=GainLossSpec.general(1.0, 1e6))
            general = general_residual_solve(lot, prefs)
            lo, hi = linear.expectation_interval
            assert lo - 1e-3 <= general.subjective_expectation <= hi + 1e-3
            e = general.subjective_expectation
            if lot.utilities[0] + 1e-9 < e < lot.utilities[-1] - 1e-9:
                eta_beta = prefs.eta * prefs.gain_loss.beta
                residual = math.fsum(
                    p * (loss_multiplier(e - u, prefs) - 1.0)
                    for p, u in zip(lot.probs, lot.utilities) if u < e
                ) - (1.0 - eta_beta) / eta_beta
                assert abs(residual) <= 1e-8

        # two-state: solver against the q-grid brute force, and the
        # constant-marginal corner rule in the saturated-multiplier regime
        for p in np.arange(0.05, 0.96, 0.05):
            for kappa in (1.0, 1e6):
                prefs = Preferences(0.75, 2.25, gain_loss=GainLossSpec.general(1.1, kappa))
                lot = DiscreteLottery((0.0, 1.0), (1.0 - float(p), float(p)))
                sol = general_residual_solve(lot, prefs)
                q_best, u_best = grid_search_beliefs(lot, prefs, step=0.01)
                assert sol.total_utility >= u_best - 1e-9
                assert abs(sol.subjective_expectation - q_best[1]) <= 0.01 + 1e-9
                if kappa == 1e6:
                    eta_beta = 0.75 * 1.1
                    lam_p = loss_multiplier(float(p), prefs)
                    corner_rule = (eta_beta * lam_p - 1.0) / (eta_beta * (lam_p - 1.0))
                    expected = 1.0 if p > corner_rule else 0.0
                    assert sol.subjective_expectation == pytest.approx(expected, abs=1e-3)
