import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbl import (
    ConsumptionUtility,
    DiscreteLottery,
    DomainError,
    Preferences,
    canonical_beliefs,
    cutoff_probability,
    gain_probability,
    grid_search_beliefs,
    solve_optimal_beliefs,
    total_utility,
)

from conftest import random_lottery, random_prefs

PREFS = Preferences(eta=0.8, lambda0=2.25)
TWO_STATE = DiscreteLottery((0.0, 1.0), (0.1, 0.9))


def strict_gain(lottery, expectation):
    return math.fsum(p for p, u in zip(lottery.probs, lottery.utilities) if u > expectation)


class TestLottery:
    def test_sorted_and_merged(self):
        lot = DiscreteLottery((3.0, 1.0, 3.0, 0.5), (0.2, 0.3, 0.1, 0.4))
        assert lot.payoffs == (0.5, 1.0, 3.0)
        assert lot.probs == pytest.approx((0.4, 0.3, 0.3))

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteLottery((0.0, 1.0), (0.5,))
        with pytest.raises(ValueError):
            DiscreteLottery((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            DiscreteLottery((0.0, 1.0), (0.6, 0.6))
        with pytest.raises(ValueError):
            DiscreteLottery((), ())

    def test_power_utility_without_rho_named(self):
        # JSON input cannot get here (from_dict requires the field), the constructor can
        with pytest.raises(ValueError, match=r"utility\.rho must be a finite number, got None"):
            ConsumptionUtility("power")

    def test_utility_kinds(self):
        lin = DiscreteLottery((0.0, 4.0), (0.5, 0.5))
        assert lin.utilities == (0.0, 4.0)
        pw = DiscreteLottery((1.0, 4.0), (0.5, 0.5), ConsumptionUtility("power", 0.5))
        assert pw.utilities[1] == pytest.approx(2.0 * 2.0)
        lg = DiscreteLottery((1.0, math.e), (0.5, 0.5), ConsumptionUtility("log"))
        assert lg.utilities == pytest.approx((0.0, 1.0))

    def test_marginal_array_matches_scalar(self):
        z = np.array([0.25, 1.0, 3.5])
        for utility, marginal in ((ConsumptionUtility(), lambda v: 1.0),
                                  (ConsumptionUtility("log"), lambda v: 1.0 / v),
                                  (ConsumptionUtility("power", 2.0), lambda v: v ** -2.0),
                                  (ConsumptionUtility("power", 0.5), lambda v: v ** -0.5)):
            expected = [marginal(float(v)) for v in z]
            assert utility.marginal_array(z) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_power_inverse_outside_range_names_the_level(self):
        # rho > 1 maps payoffs to negative levels only; rho < 1 to nonnegative ones
        for rho, level in ((2.0, 0.5), (0.5, -0.25)):
            with pytest.raises(DomainError, match=rf"utility level {level} outside .* rho={rho}"):
                ConsumptionUtility("power", rho).inverse(level)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            DiscreteLottery((0.0, 1.0), (0.5, 0.5), ConsumptionUtility("log")).utilities

    def test_from_dict_readme_schema(self):
        lot = DiscreteLottery((0.0, 2.0), (0.25, 0.75), ConsumptionUtility("power", 2.0))
        parsed = DiscreteLottery.from_dict(
            json.loads('{"payoffs": [0, 2], "probs": [0.25, 0.75], "utility": {"kind": "power", "rho": 2}}'))
        assert parsed == lot and hash(parsed) == hash(lot) and repr(parsed) == repr(lot)


class TestTotalUtility:
    def test_two_state_biased(self):
        assert total_utility(TWO_STATE, (0.0, 1.0), PREFS) == pytest.approx(0.82, abs=1e-12)

    def test_two_state_rational(self):
        assert total_utility(TWO_STATE, TWO_STATE.probs, PREFS) == pytest.approx(0.81, abs=1e-12)

    def test_single_state_after_merge(self):
        lot = DiscreteLottery((2.0, 2.0), (0.5, 0.5))
        assert lot.size == 1
        assert total_utility(lot, (1.0,), PREFS) == pytest.approx(2.0, abs=1e-12)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            total_utility(TWO_STATE, (0.5,), PREFS)
        with pytest.raises(ValueError):
            total_utility(TWO_STATE, (0.7, 0.7), PREFS)
        with pytest.raises(ValueError):
            total_utility(TWO_STATE, (-0.2, 1.2), PREFS)

    @pytest.mark.parametrize("q", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                   (-math.inf, 1.0), (math.inf, -math.inf), (math.nan, math.nan)])
    def test_non_finite_q_rejected(self, q):
        lot = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError, match="belief vector q"):
            total_utility(lot, q, PREFS)

    def test_rational_utility_three_state(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0), (1 / 3, 1 / 3, 1 / 3))
        mean = sum(p * u for p, u in zip(lot.probs, lot.utilities))
        by_hand = mean + PREFS.eta * sum(
            p * (u - mean if u >= mean else 2.25 * (u - mean))
            for p, u in zip(lot.probs, lot.utilities)
        )
        assert total_utility(lot, lot.probs, PREFS) == pytest.approx(by_hand, abs=1e-12)

    def test_rational_utility_degenerate(self):
        lot = DiscreteLottery((3.5,), (1.0,))
        assert total_utility(lot, lot.probs, PREFS) == pytest.approx(3.5, abs=1e-12)


class TestGainProbability:
    def test_below_support(self):
        assert gain_probability(TWO_STATE, -1.0) == 1.0

    def test_top_state_counts_as_gain(self):
        assert gain_probability(TWO_STATE, 1.0) == pytest.approx(0.9, abs=1e-15)

    def test_three_state(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        assert gain_probability(lot, 1.0) == pytest.approx(0.8, abs=1e-15)


class TestSolve:
    def test_optimist_corner(self):
        sol = solve_optimal_beliefs(TWO_STATE, PREFS)
        assert sol.q == pytest.approx((0.0, 1.0), abs=1e-15)
        assert sol.subjective_expectation == 1.0
        assert sol.total_utility == pytest.approx(0.82, abs=1e-12)
        assert sol.gain_mass == pytest.approx(0.9, abs=1e-15)

    def test_pessimist_corner(self):
        lot = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
        sol = solve_optimal_beliefs(lot, PREFS)
        assert sol.q == pytest.approx((1.0, 0.0), abs=1e-15)
        assert sol.subjective_expectation == 0.0

    def test_beats_simplex_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            lot = random_lottery(rng, sizes=(3, 4))
            prefs = random_prefs(rng)
            sol = solve_optimal_beliefs(lot, prefs)
            _, oracle = grid_search_beliefs(lot, prefs, step=0.02)
            assert sol.total_utility >= oracle - 1e-12

    def test_beats_random_draws(self):
        rng = np.random.default_rng(6)
        lot = random_lottery(rng, sizes=(4,))
        prefs = random_prefs(rng)
        sol = solve_optimal_beliefs(lot, prefs)
        draws = rng.dirichlet(np.ones(lot.size), size=1000)
        for q in draws:
            assert sol.total_utility >= total_utility(lot, tuple(q / q.sum()), prefs) - 1e-12

    def test_solution_invariants(self, lottery_corpus):
        for lot, prefs in lottery_corpus[:100]:
            sol = solve_optimal_beliefs(lot, prefs)
            assert math.fsum(sol.q) == pytest.approx(1.0, abs=1e-12)
            assert all(v >= 0 for v in sol.q)
            lo, hi = sol.expectation_interval
            assert lo - 1e-12 <= sol.subjective_expectation <= hi + 1e-12
            assert lot.utilities[0] - 1e-12 <= sol.subjective_expectation <= lot.utilities[-1] + 1e-12
            assert sol.gain_mass == pytest.approx(
                gain_probability(lot, sol.subjective_expectation), abs=1e-15)

    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            solve_optimal_beliefs(DiscreteLottery((1.0,), (1.0,)), PREFS)

    def test_biased_at_least_rational(self, lottery_corpus):
        for lot, prefs in lottery_corpus[:150]:
            sol = solve_optimal_beliefs(lot, prefs)
            u_re = total_utility(lot, lot.probs, prefs)
            assert sol.total_utility >= u_re - 1e-12
            p_plus0 = gain_probability(lot, lot.mean_utility)
            if abs(p_plus0 - cutoff_probability(prefs)) > 1e-9:
                assert sol.total_utility > u_re + 1e-9

    def test_expectation_sign_matches_gain_mass(self, lottery_corpus):
        for lot, prefs in lottery_corpus[:150]:
            sol = solve_optimal_beliefs(lot, prefs)
            diff = sol.subjective_expectation - lot.mean_utility
            gap = gain_probability(lot, lot.mean_utility) - cutoff_probability(prefs)
            if abs(gap) <= 1e-12:
                assert abs(diff) <= 1e-12
            else:
                assert diff * gap > 0

    def test_stationarity_transition(self, lottery_corpus):
        # gain mass crosses the cutoff from above to (weakly) below at the optimum
        for lot, prefs in lottery_corpus[:100]:
            sol = solve_optimal_beliefs(lot, prefs)
            p_star = cutoff_probability(prefs)
            e = sol.subjective_expectation
            span = lot.utilities[-1] - lot.utilities[0]
            if e - 1e-6 * span > lot.utilities[0]:
                assert gain_probability(lot, e - 1e-6 * span) > p_star - 1e-9
            if e + 1e-6 * span < lot.utilities[-1]:
                assert gain_probability(lot, e + 1e-6 * span) <= p_star + 1e-9

    def test_transfer_monotonicity(self, lottery_corpus):
        # moving eps toward better states helps iff the gain mass clears the cutoff
        eps = 1e-4
        rng = np.random.default_rng(11)
        checked = 0
        for lot, prefs in lottery_corpus[:120]:
            if lot.size < 2:
                continue
            p_star = cutoff_probability(prefs)
            draws = [np.array(lot.probs), rng.dirichlet(np.ones(lot.size))]
            for q in draws:
                q = q / q.sum()
                e = float(q @ np.array(lot.utilities))
                p_plus = gain_probability(lot, e)
                if abs(p_plus - p_star) <= 1e-9:
                    continue
                up = p_plus > p_star
                for low in range(lot.size):
                    for high in range(low + 1, lot.size):
                        src, dst = (low, high) if up else (high, low)
                        if q[src] < eps:
                            continue
                        q2 = q.copy()
                        q2[src] -= eps
                        q2[dst] += eps
                        e2 = float(q2 @ np.array(lot.utilities))
                        # the claim is directional: skip transfers that cross the cutoff
                        if up and gain_probability(lot, e2) <= p_star:
                            continue
                        if not up and strict_gain(lot, e2) >= p_star:
                            continue
                        assert total_utility(lot, tuple(q2), prefs) >= \
                            total_utility(lot, tuple(q), prefs) - 1e-12
                        checked += 1
        assert checked > 300

    def test_knife_edge_plateau(self):
        # objective gain probability exactly at the cutoff: any expectation is optimal
        lot = DiscreteLottery((0.0, 1.0), (1.0 - 0.8, 0.8))
        prefs = Preferences(eta=0.8, lambda0=2.25)
        assert cutoff_probability(prefs) == pytest.approx(0.8, abs=1e-12)
        sol = solve_optimal_beliefs(lot, prefs)
        assert sol.expectation_interval == (0.0, 1.0)
        assert sol.subjective_expectation == pytest.approx(lot.mean_utility, abs=1e-12)
        for q in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5), lot.probs):
            assert total_utility(lot, q, prefs) == pytest.approx(sol.total_utility, abs=1e-12)


class TestCanonicalBeliefs:
    def test_rational_target_returns_objective(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        q = canonical_beliefs(lot, lot.mean_utility)
        assert q == pytest.approx(lot.probs, abs=1e-12)

    def test_top_corner(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        assert canonical_beliefs(lot, 2.0) == (0.0, 0.0, 1.0)

    def test_bottom_corner(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        assert canonical_beliefs(lot, 0.0) == (1.0, 0.0, 0.0)

    def test_mean_and_mass_constraints(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        q = canonical_beliefs(lot, 1.5)
        assert math.fsum(q) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(qs * us for qs, us in zip(q, lot.utilities)) == pytest.approx(1.5, abs=1e-12)

    def test_overweights_gains_when_biasing_up(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0, 5.0), (0.4, 0.3, 0.2, 0.1))
        target = lot.mean_utility + 0.8
        q = canonical_beliefs(lot, target)
        for qs, ps, us in zip(q, lot.probs, lot.utilities):
            if us >= target:
                assert qs >= ps
            else:
                assert qs <= ps

    @pytest.mark.parametrize("utility", [ConsumptionUtility(), ConsumptionUtility("log")], ids=["linear", "log"])
    def test_one_state_takes_all_mass(self, utility):
        # the target is clamped to the one utility, which is the top of the range
        lot = DiscreteLottery((1.5,), (1.0,), utility)
        u = lot.utilities[0]
        for target in (u, u - 1e-9, u + 1e-9):
            assert canonical_beliefs(lot, target) == (1.0,)
        for target in (u - 1e-8, u + 1e-8):
            with pytest.raises(ValueError, match="outside the utility range"):
                canonical_beliefs(lot, target)

    def test_out_of_range_rejected(self):
        lot = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            canonical_beliefs(lot, 1.5)
        with pytest.raises(ValueError):
            canonical_beliefs(lot, -0.5)

    @given(st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_any_target_is_attained(self, frac, seed):
        rng = np.random.default_rng(seed)
        lot = random_lottery(rng)
        u_lo, u_hi = lot.utilities[0], lot.utilities[-1]
        target = u_lo + frac * (u_hi - u_lo)
        q = canonical_beliefs(lot, target)
        assert all(v >= -1e-15 for v in q)
        assert math.fsum(q) == pytest.approx(1.0, abs=1e-9)
        got = math.fsum(qs * us for qs, us in zip(q, lot.utilities))
        assert got == pytest.approx(target, abs=1e-9 * max(1.0, abs(target)))

    def test_representatives_agree_in_value(self):
        # proportional tilt and two-point blend give identical utility at equal targets
        lot = DiscreteLottery((0.0, 1.0, 2.0), (0.2, 0.3, 0.5))
        prefs = PREFS
        target = 1.5
        tilt = canonical_beliefs(lot, target)
        theta = (target - 0.0) / (2.0 - 0.0)
        blend = (1.0 - theta, 0.0, theta)
        assert total_utility(lot, tilt, prefs) == pytest.approx(
            total_utility(lot, blend, prefs), abs=1e-12)
