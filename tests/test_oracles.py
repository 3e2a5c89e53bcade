import math

import numpy as np
import pytest

from bbl import (
    DiscreteLottery,
    Preferences,
    grid_search_alpha,
    grid_search_beliefs,
    simpson_integral,
    solve_optimal_beliefs,
)

from conftest import random_lottery, random_prefs

PREFS = Preferences(eta=0.8, lambda0=2.25)


class TestGridSearchBeliefs:
    def test_two_state_corner(self):
        lot = DiscreteLottery((0.0, 1.0), (0.1, 0.9))
        q, value = grid_search_beliefs(lot, PREFS, step=0.01)
        assert q == pytest.approx((0.0, 1.0))
        assert value == pytest.approx(0.82, abs=1e-12)

    def test_degenerate_state(self):
        lot = DiscreteLottery((3.0,), (1.0,))
        q, value = grid_search_beliefs(lot, PREFS, step=0.01)
        assert q == (1.0,)
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_refuses_large_lotteries(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
        with pytest.raises(ValueError):
            grid_search_beliefs(lot, PREFS, step=0.02)

    def test_refuses_tiny_steps(self):
        lot = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            grid_search_beliefs(lot, PREFS, step=0.001)

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.5, 1.5])
    def test_refuses_non_finite_and_out_of_range_steps(self, step):
        lot = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(ValueError, match="step"):
            grid_search_beliefs(lot, PREFS, step=step)

    def test_solver_dominates_grid(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            lot = random_lottery(rng)
            prefs = random_prefs(rng)
            _, oracle = grid_search_beliefs(lot, prefs, step=0.02)
            assert solve_optimal_beliefs(lot, prefs).total_utility >= oracle - 1e-12


class TestGridSearchAlpha:
    def test_concave_quadratic(self):
        alpha, value = grid_search_alpha(lambda a: -(a - 0.3) ** 2, (0.0, 1.0))
        assert alpha == pytest.approx(0.3, abs=5e-4)
        assert value <= 0.0

    def test_refinement_beats_raw_grid(self):
        # vertex lands between grid points; the parabolic step recovers it
        alpha, _ = grid_search_alpha(lambda a: -(a - 0.300123) ** 2, (0.0, 1.0))
        assert alpha == pytest.approx(0.300123, abs=1e-6)

    def test_handles_minus_infinity(self):
        def objective(a):
            return -math.inf if a > 0.5 else a

        alpha, value = grid_search_alpha(objective, (0.0, 1.0))
        assert alpha <= 0.5
        assert value == pytest.approx(0.5, abs=1e-3)

    def test_requires_dense_grid(self):
        with pytest.raises(ValueError):
            grid_search_alpha(lambda a: -a * a, (0.0, 1.0), 500)


class TestSimpson:
    def test_polynomial_exact(self):
        assert simpson_integral(lambda x: 3.0 * x ** 2, 0.0, 2.0, 101) == pytest.approx(8.0, abs=1e-12)

    def test_gaussian_mass(self):
        pdf = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert simpson_integral(pdf, -8.0, 8.0, 2001) == pytest.approx(1.0, abs=1e-10)

    def test_empty_interval(self):
        assert simpson_integral(lambda x: x, 1.0, 1.0) == 0.0
