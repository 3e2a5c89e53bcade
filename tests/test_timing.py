import math
from dataclasses import replace

import numpy as np
import pytest

import bbl.timing
from bbl import (
    DiscreteLottery,
    GainLossSpec,
    Preferences,
    cutoff_probability,
    gain_probability,
    solve_optimal_beliefs,
    timing_preference,
    utility_early,
    utility_wait,
)
from bbl.preferences import _verdict

from conftest import random_lottery, random_prefs

PREFS = Preferences(eta=0.8, lambda0=2.25)
TWO_STATE = DiscreteLottery((0.0, 1.0), (0.1, 0.9))


def two_state(p):
    return DiscreteLottery((0.0, 1.0), (1.0 - p, p))


class TestUtilityEarly:
    def test_certain_top_state(self):
        for gamma in (0.0, 0.5, 1.0):
            prefs = Preferences(eta=0.8, lambda0=2.25, gamma=gamma)
            assert utility_early(TWO_STATE, (0.0, 1.0), prefs) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_gives_state_utility(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        assert utility_early(lot, (0.0, 1.0, 0.0), PREFS) == pytest.approx(1.0, abs=1e-12)

    def test_half_half(self):
        assert utility_early(TWO_STATE, (0.5, 0.5), PREFS) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("q", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)])
    def test_non_finite_q_rejected(self, q):
        lot = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
        for utility in (utility_early, utility_wait):
            with pytest.raises(ValueError, match="belief vector q"):
                utility(lot, q, PREFS)


class TestUtilityWait:
    def test_matches_closed_form(self):
        assert utility_wait(TWO_STATE, (0.0, 1.0), PREFS) == pytest.approx(0.82, abs=1e-12)

    def test_degenerate(self):
        lot = DiscreteLottery((1.0,), (1.0,))
        assert utility_wait(lot, (1.0,), PREFS) == pytest.approx(1.0, abs=1e-12)

    def test_zero_belief_on_top(self):
        for p in (0.2, 0.6, 0.9):
            assert utility_wait(two_state(p), (1.0, 0.0), PREFS) == pytest.approx(
                PREFS.eta * p, abs=1e-12)


class TestVerdict:
    def test_optimist_prefers_early(self):
        verdict = timing_preference(TWO_STATE, PREFS)
        assert verdict.verdict == "early"
        assert verdict.u_early == pytest.approx(1.0, abs=1e-12)
        assert verdict.u_wait == pytest.approx(0.82, abs=1e-12)

    def test_pessimist_prefers_waiting(self):
        verdict = timing_preference(two_state(0.5), PREFS)
        assert verdict.verdict == "wait"

    def test_knife_edge_indifferent(self):
        lot = two_state(0.8)  # success chance equals the cutoff exactly
        assert cutoff_probability(PREFS) == pytest.approx(0.8, abs=1e-12)
        verdict = timing_preference(lot, PREFS)
        assert verdict.verdict == "indifferent"
        assert abs(verdict.u_early - verdict.u_wait) <= 1e-10

    def test_low_gamma_optimist_still_early(self):
        prefs = Preferences(eta=0.8, lambda0=2.25, gamma=0.5)
        verdict = timing_preference(TWO_STATE, prefs)
        assert verdict.verdict == "early"

    def test_verdict_sign_consistency(self, lottery_corpus):
        for lot, prefs in lottery_corpus[:100]:
            if lot.size < 2:
                continue
            v = timing_preference(lot, prefs)
            if v.verdict == "early":
                assert v.u_early - v.u_wait > 1e-10
            elif v.verdict == "wait":
                assert v.u_wait - v.u_early > 1e-10
            else:
                assert abs(v.u_early - v.u_wait) <= 1e-10


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


def test_verdict_is_exactly_the_two_utilities_at_the_solver_beliefs(monkeypatch):
    """``timing_preference`` reuses the solver's ``total_utility`` as ``u_wait`` when the
    solver's ``q`` sums to its own expectation, and computes it otherwise; either way both
    utilities are bit-identical to ``utility_early`` and ``utility_wait`` at that ``q``."""
    recomputed = []
    at_expectation = bbl.timing._utility_at_expectation
    monkeypatch.setattr(bbl.timing, "_utility_at_expectation",
                        lambda *args: recomputed.append(args) or at_expectation(*args))
    kinds = {"linear": 0, "general": 0}
    for lot, prefs in timing_corpus():
        q = solve_optimal_beliefs(lot, prefs).q
        before = len(recomputed)
        v = timing_preference(lot, prefs)
        assert len(recomputed) - before <= 1
        kinds[prefs.gain_loss.kind] += 1
        assert v.u_early == utility_early(lot, q, prefs)
        assert v.u_wait == utility_wait(lot, q, prefs)
        assert v.verdict == _verdict(v.u_early - v.u_wait, "early", "wait")
    reused = sum(kinds.values()) - len(recomputed)
    assert kinds["linear"] > 300 and kinds["general"] > 150
    assert reused > 100 and len(recomputed) > 100


class TestConditionD:
    def test_sign_equivalence_two_state(self):
        lam = 2.25
        grid = np.linspace(0.05, 0.95, 19)
        for p in grid:
            lot = two_state(p)
            for q in grid:
                diff = utility_early(lot, (1 - q, q), PREFS) - utility_wait(lot, (1 - q, q), PREFS)
                closed = (q - p) * (1 - q) - lam * (p - q) * q
                if abs(closed) <= 1e-12:
                    assert abs(diff) <= 1e-12
                else:
                    assert diff * closed > 0

    def test_low_gamma_up_biased_always_early(self):
        prefs = Preferences(eta=0.8, lambda0=2.25, gamma=0.5)
        grid = np.linspace(0.05, 0.95, 19)
        for p in grid:
            lot = two_state(p)
            for q in grid:
                if q > p:
                    assert utility_early(lot, (1 - q, q), prefs) > \
                        utility_wait(lot, (1 - q, q), prefs)


class TestGeneralStates:
    def test_verdict_equals_gain_mass_comparison(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            lot = random_lottery(rng, sizes=(2, 3, 4, 5))
            prefs = random_prefs(rng)
            p_plus0 = gain_probability(lot, lot.mean_utility)
            p_star = cutoff_probability(prefs)
            if abs(p_plus0 - p_star) <= 1e-12:
                continue
            expected = "early" if p_plus0 > p_star else "wait"
            assert timing_preference(lot, prefs).verdict == expected
            checked += 1
        assert checked > 150

    def test_gamma_monotonicity(self):
        # when prospective feelings at optimal beliefs are net-negative,
        # raising their weight cannot make early information more attractive
        rng = np.random.default_rng(23)
        for _ in range(50):
            lot = random_lottery(rng)
            base = random_prefs(rng)
            sol = solve_optimal_beliefs(lot, base)
            for gamma in (0.2, 0.5, 0.8):
                lo = Preferences(eta=base.eta, lambda0=base.lambda0, gamma=gamma)
                hi = Preferences(eta=base.eta, lambda0=base.lambda0, gamma=gamma + 0.1)
                d_lo = utility_early(lot, sol.q, lo) - utility_wait(lot, sol.q, lo)
                d_hi = utility_early(lot, sol.q, hi) - utility_wait(lot, sol.q, hi)
                prospective = (utility_early(lot, sol.q, hi) - utility_early(lot, sol.q, lo))
                if prospective < 0:
                    assert d_hi <= d_lo + 1e-12
