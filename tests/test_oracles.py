import gc
import itertools
import math
import re

import numpy as np
import pytest

from bbl import (
    DiscreteLottery,
    GainLossSpec,
    Preferences,
    grid_search_alpha,
    grid_search_beliefs,
    simpson_integral,
    solve_optimal_beliefs,
)
from bbl.oracles import _oracle_gain_loss, _simplex_grid

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

    def test_tie_returns_first_row(self):
        # eta * (lambda + 1) * p = 1 makes the objective flat in q, and the
        # dyadic inputs keep every grid total exactly 0.25
        lot = DiscreteLottery((0.0, 1.0), (0.5, 0.5))
        q, value = grid_search_beliefs(lot, Preferences(eta=0.5, lambda0=3.0), step=0.25)
        assert q == (0.0, 1.0)
        assert value == 0.25

    def test_leaves_no_cyclic_garbage(self):
        lot = DiscreteLottery((0.0, 1.0, 2.0, 3.0), (0.25,) * 4)
        _simplex_grid.cache_clear()
        gc.collect()
        gc.disable()
        try:
            grid_search_beliefs(lot, PREFS, step=0.05)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSimplexGrid:
    @pytest.mark.parametrize("n_states", [1, 2, 3, 4])
    def test_lexicographic_rows(self, n_states):
        for steps in range(1, 13):
            rows = [r for r in itertools.product(range(steps + 1), repeat=n_states) if sum(r) == steps]
            assert np.array_equal(_simplex_grid(n_states, steps), np.array(rows) / steps)

    @pytest.mark.parametrize("n_states", [2, 3, 4])
    @pytest.mark.parametrize("steps", [50, 100])
    def test_row_count(self, n_states, steps):
        assert len(_simplex_grid(n_states, steps)) == math.comb(steps + n_states - 1, n_states - 1)

    def test_read_only(self):
        grid = _simplex_grid(3, 10)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.5


class TestOracleGainLoss:
    @pytest.mark.parametrize("kappa", [1e-2, 0.5, 5.0, 1e2, 1e4])
    @pytest.mark.parametrize("n_loss", [1, 127, 128, 129, 1000])
    def test_batched_simpson_matches_per_entry_rule(self, kappa, n_loss):
        # loss entries straddle the split at 30/kappa; 127-129 sit on a chunk edge
        rng = np.random.default_rng(n_loss)
        eta = rng.uniform(0.3, 0.9)
        beta, lam = rng.uniform(0.5, 0.99 / eta), rng.uniform(1.1, 4.0)
        prefs = Preferences(eta=eta, lambda0=lam, gain_loss=GainLossSpec.general(beta, kappa))
        x = np.concatenate([-(30.0 / kappa) * 10.0 ** rng.uniform(-2.0, 0.5, n_loss),
                            rng.uniform(0.0, 5.0, 7)])
        rng.shuffle(x)

        def slope(s):
            return beta * (1.0 + (lam - 1.0) * (1.0 - np.exp(-kappa * s)))

        got = _oracle_gain_loss(x, prefs)
        for xi, gi in zip(x, got):
            if xi >= 0:
                assert gi == beta * xi
                continue
            t = -xi
            split = min(t, 30.0 / kappa)
            want = -(simpson_integral(slope, 0.0, split, 801) + simpson_integral(slope, split, t, 801))
            assert gi == pytest.approx(want, rel=1e-15, abs=0.0)


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

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.5, 0.5)])
    def test_requires_ordered_bounds(self, bounds):
        with pytest.raises(ValueError, match=re.escape(f"bounds must satisfy lo < hi, got {bounds}")):
            grid_search_alpha(lambda a: -a * a, bounds)


class TestSimpson:
    def test_polynomial_exact(self):
        assert simpson_integral(lambda x: 3.0 * x ** 2, 0.0, 2.0, 101) == pytest.approx(8.0, abs=1e-12)

    def test_gaussian_mass(self):
        pdf = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert simpson_integral(pdf, -8.0, 8.0, 2001) == pytest.approx(1.0, abs=1e-10)

    def test_empty_interval(self):
        assert simpson_integral(lambda x: x, 1.0, 1.0) == 0.0

    def test_even_node_count_takes_the_next_odd(self):
        fn = lambda x: np.exp(np.sin(3.0 * x))
        assert simpson_integral(fn, -0.4, 1.3, 4) == simpson_integral(fn, -0.4, 1.3, 5)
        assert simpson_integral(fn, -0.4, 1.3, 4) != simpson_integral(fn, -0.4, 1.3, 3)

    @pytest.mark.parametrize("n", [2, 1, 0, -3])
    def test_too_few_nodes_named(self, n):
        with pytest.raises(ValueError, match=rf"at least 3 nodes, got {n}$"):
            simpson_integral(lambda x: x, 0.0, 1.0, n)
