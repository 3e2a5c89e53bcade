import subprocess
import sys

import numpy as np
import pytest

from bbl import (
    Asset,
    ConsumptionUtility,
    ContinuousDistribution,
    DomainError,
    GainLossSpec,
    Preferences,
    certainty_equivalent_excess,
    cutoff_probability,
    eta_for_cutoff,
    grid_search_alpha,
    naive_alpha,
    rational_alpha,
    sophisticated_alpha,
    subjective_expectation,
)
from bbl import portfolio
from bbl.portfolio import (
    _FIXED_POINT_TOL,
    DEFAULT_BOUNDS,
    _AssetGrid,
    _best_share,
    _best_share_near,
    _feasible_bounds,
    _frozen_slope,
    _naive_beliefs,
    _sign_regions,
    naive_fixed_objective,
    rational_objective,
    sophisticated_objective,
)

NORMAL_ASSET = Asset(1.0, ContinuousDistribution.normal(0.05, 0.2))
LINEAR = ConsumptionUtility()
LOG = ConsumptionUtility("log")


def prefs_for(p_star, lam=2.25):
    return Preferences(eta=eta_for_cutoff(p_star, lam), lambda0=lam)


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
                prefs = prefs_for(rng.uniform(0.1, 0.9), rng.uniform(1.5, 3.0))
                cases.append((Asset(1.0, excess), prefs, utility))
    return cases


class TestRational:
    def test_symmetric_zero(self, power2):
        asset = Asset(1.0, ContinuousDistribution.normal(0.0, 0.2))
        assert abs(rational_alpha(asset, power2, (-1.0, 1.0)).alpha) <= 1e-6

    def test_linear_corner(self):
        sol = rational_alpha(NORMAL_ASSET, LINEAR, (0.0, 1.0))
        assert sol.alpha == 1.0

    def test_power_interior_matches_fine_scan(self, power2):
        sol = rational_alpha(NORMAL_ASSET, power2, (0.0, 1.0))
        assert 0.0 < sol.alpha < 1.0
        alpha_scan, _ = grid_search_alpha(rational_objective(NORMAL_ASSET, power2), (0.0, 1.0), 10001)
        assert sol.alpha == pytest.approx(alpha_scan, abs=1e-4)

    @pytest.mark.parametrize("utility", [LINEAR, LOG, ConsumptionUtility("power", 2.0)])
    def test_oracle_equivalence(self, utility):
        bounds = (-10.0, 10.0)
        sol = rational_alpha(NORMAL_ASSET, utility, bounds)
        alpha_oracle, _ = grid_search_alpha(rational_objective(NORMAL_ASSET, utility), bounds)
        assert abs(sol.alpha - alpha_oracle) <= 20.0 / 2000.0

    def test_sign_follows_mean(self, power2):
        up = Asset(1.0, ContinuousDistribution.normal(0.03, 0.2))
        down = Asset(1.0, ContinuousDistribution.normal(-0.03, 0.2))
        for utility in (LINEAR, LOG, power2):
            assert rational_alpha(up, utility, (-0.5, 0.5)).alpha > 0
            assert rational_alpha(down, utility, (-0.5, 0.5)).alpha < 0

    def test_infeasible_domain_raises(self):
        broke = Asset(0.0, ContinuousDistribution.normal(0.05, 0.2))
        with pytest.raises(DomainError):
            rational_alpha(broke, LOG, (0.5, 1.0))

    def test_certainty_equivalent_round_trip(self, power2):
        sol = rational_alpha(NORMAL_ASSET, power2, (0.0, 1.0))
        assert power2.value(NORMAL_ASSET.r_f + sol.alpha * sol.r_ce) == pytest.approx(
            sol.belief_expectation, abs=1e-9)


class TestNaive:
    def test_knife_edge_returns_rational(self, calibrated_asset, power2):
        rational = rational_alpha(calibrated_asset, power2)
        # cutoff chosen so rational beliefs are already optimal at alpha_RE
        r0 = (power2.inverse(rational.value) - calibrated_asset.r_f) / rational.alpha
        p_plus0 = 1.0 - calibrated_asset.excess.cdf(r0)
        sol = naive_alpha(calibrated_asset, prefs_for(p_plus0), power2)
        assert sol.converged
        assert sol.alpha == pytest.approx(rational.alpha, abs=1e-6)

    def test_orderings(self, calibrated_asset, power2):
        rational = rational_alpha(calibrated_asset, power2)
        r0 = (power2.inverse(rational.value) - calibrated_asset.r_f) / rational.alpha
        p_plus0 = 1.0 - calibrated_asset.excess.cdf(r0)
        for p_star in (0.3, 0.9):
            sol = naive_alpha(calibrated_asset, prefs_for(p_star), power2)
            assert sol.converged
            if p_plus0 > p_star:  # optimist
                assert not 0.0 < sol.alpha < rational.alpha
            else:  # pessimist
                assert 0.0 < sol.alpha <= rational.alpha

    def test_fixed_point_property(self, calibrated_asset, power2):
        prefs = prefs_for(0.9)
        sol = naive_alpha(calibrated_asset, prefs, power2)
        objective = naive_fixed_objective(calibrated_asset, prefs, power2, sol.alpha)
        alpha_scan, _ = grid_search_alpha(objective, (-10.0, 10.0))
        assert abs(sol.alpha - alpha_scan) <= 20.0 / 2000.0

    def test_general_gain_loss_rejected(self, calibrated_asset, power2):
        prefs = Preferences(eta=0.6, lambda0=2.25, gain_loss=GainLossSpec.general(1.0, 2.0))
        with pytest.raises(ValueError):
            naive_alpha(calibrated_asset, prefs, power2)

    def test_degenerate_cutoff_rejected(self, calibrated_asset, power2):
        with pytest.raises(DomainError):
            naive_alpha(calibrated_asset, Preferences(eta=1.0, lambda0=2.25), power2)


class TestNaiveCorpus:
    BOUNDS = (-10.0, 10.0)

    @pytest.fixture(scope="class")
    def solved(self):
        return [(asset, prefs, utility, naive_alpha(asset, prefs, utility, self.BOUNDS))
                for asset, prefs, utility in naive_corpus()]

    def test_converged_shares_are_grid_fixed_points(self, solved):
        spacing = (self.BOUNDS[1] - self.BOUNDS[0]) / 2000
        kinds = set()
        for asset, prefs, utility, sol in solved:
            if not sol.converged:
                continue
            kinds.add((asset.excess.kind, utility.kind))
            objective = naive_fixed_objective(asset, prefs, utility, sol.alpha)
            assert sol.value == objective(sol.alpha)
            grid_alpha, grid_value = grid_search_alpha(objective, self.BOUNDS)
            assert grid_value - sol.value <= 1e-9 * max(1.0, abs(sol.value))
            assert abs(grid_alpha - sol.alpha) <= spacing
        # every distribution kind and utility kind has converged cases
        assert len(kinds) == 9

    def test_non_converged_share_is_evaluated(self, solved):
        for asset, prefs, utility, sol in solved:
            lo, hi = self.BOUNDS
            assert lo <= sol.alpha <= hi
            assert sol.iterations > 0
            if not sol.converged:
                objective = naive_fixed_objective(asset, prefs, utility, sol.alpha)
                assert sol.value == objective(sol.alpha)

    def test_converged_shares_are_inner_best_responses(self, solved):
        # the best response under the beliefs frozen at the share is the share
        for asset, prefs, utility, sol in solved:
            if not sol.converged:
                continue
            lo, hi = _feasible_bounds(asset, utility, self.BOUNDS)
            x, w = _naive_beliefs(_AssetGrid(asset, prefs), utility, sol.alpha)
            best, _ = _best_share(x, w, asset.r_f, utility, lo, hi)
            if sol.alpha in (lo, hi):
                assert best == sol.alpha
            else:
                assert abs(best - sol.alpha) <= 1e-10

    def test_interior_shares_are_sign_changes_of_the_frozen_slope(self, solved):
        roots = 0
        for asset, prefs, utility, sol in solved:
            lo, hi = _feasible_bounds(asset, utility, self.BOUNDS)
            if not sol.converged or sol.alpha in (lo, 0.0, hi):
                continue
            grid = _AssetGrid(asset, prefs)
            below, above = (_frozen_slope(grid, utility, sol.alpha + d) for d in (-1e-7, 1e-7))
            assert below * above < 0
            roots += 1
        assert roots > 0

    def test_iterations_count_frozen_slope_evaluations(self, monkeypatch):
        shares = []
        slope = portfolio._frozen_slope
        monkeypatch.setattr(portfolio, "_frozen_slope",
                            lambda grid, utility, alpha: shares.append(alpha) or slope(grid, utility, alpha))
        for asset, prefs, utility in naive_corpus():
            shares.clear()
            sol = naive_alpha(asset, prefs, utility, self.BOUNDS)
            regions = _sign_regions(*_feasible_bounds(asset, utility, self.BOUNDS))
            assert sol.iterations == len(shares) >= 7 * len(regions)

    @pytest.mark.parametrize("eta", [0.70, 0.75, 0.80, 0.85])
    def test_readme_asset_has_no_fixed_point(self, eta, power2):
        prefs = Preferences(eta=eta, lambda0=2.25)
        sol = naive_alpha(NORMAL_ASSET, prefs, power2)
        assert not sol.converged
        objective = naive_fixed_objective(NORMAL_ASSET, prefs, power2, sol.alpha)
        assert sol.value == objective(sol.alpha)
        # the least-|gap| sample: the long region's first share, just right of 0
        _, hi = _feasible_bounds(NORMAL_ASSET, power2, DEFAULT_BOUNDS)
        assert sol.alpha == 1e-6 * hi == pytest.approx(6.451612902225806e-07, rel=1e-15)

    def test_cli_import_leaves_scipy_out(self):
        code = "import sys, bbl.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def eta_corpus(seed=20261019, per_cell=3):
    """Seeded (asset, prefs, utility) triples at eta in [0.5, 0.9]: normal, two-component
    mixture and tabulated excess returns, each with linear, log and power rho = 2 utility."""
    rng = np.random.default_rng(seed)
    cases = []
    for kind in ("normal", "mixture", "tabulated"):
        for utility in (LINEAR, LOG, ConsumptionUtility("power", 2.0)):
            for _ in range(per_cell):
                asset = Asset(1.0, random_excess(rng, kind))
                for eta in rng.uniform(0.5, 0.9, 3):
                    lam = float(rng.uniform(1.0 / eta + 0.05, 3.5))
                    cases.append((asset, Preferences(eta=float(eta), lambda0=lam), utility))
    return cases


class TestNaiveConfirmation:
    """A naive candidate counts as a fixed point by ``_best_share``'s own rule, read from
    slope signs: the inner best response under the beliefs frozen at it lies within
    ``_FIXED_POINT_TOL``."""

    BOUNDS = (-10.0, 10.0)

    def test_converged_shares_are_inner_best_responses(self):
        kinds = set()
        for asset, prefs, utility in eta_corpus():
            sol = naive_alpha(asset, prefs, utility, self.BOUNDS)
            if not sol.converged:
                continue
            kinds.add((asset.excess.kind, utility.kind))
            lo, hi = _feasible_bounds(asset, utility, self.BOUNDS)
            x, w = _naive_beliefs(_AssetGrid(asset, prefs), utility, sol.alpha)
            best, _ = _best_share(x, w, asset.r_f, utility, lo, hi)
            assert abs(best - sol.alpha) <= _FIXED_POINT_TOL
        assert len(kinds) == 9

    def test_slope_signs_agree_with_the_inner_maximization(self):
        # shares at multiples of tol / 4 around the best response, off the knife edges at exactly tol
        rng = np.random.default_rng(21)
        tol, checked = _FIXED_POINT_TOL, 0
        for asset, prefs, utility in eta_corpus()[::4]:
            lo, hi = _feasible_bounds(asset, utility, self.BOUNDS)
            grid = _AssetGrid(asset, prefs)
            for frozen in rng.uniform(lo, hi, 2):
                x, w = _naive_beliefs(grid, utility, float(frozen))
                best, _ = _best_share(x, w, asset.r_f, utility, lo, hi)
                for k in (-6, -5, -3, -1, 0, 1, 3, 5, 6):
                    share = min(max(best + 0.25 * k * tol, lo), hi)
                    want = abs(best - share) <= tol
                    assert _best_share_near(x, w, asset.r_f, utility, lo, hi, share, tol) == want
                    checked += 1
        assert checked > 100

    def test_iterations_match_the_brent_confirmed_solver(self, power2):
        # h evaluations on the README asset at the benchmark's eta grid, as counted when each
        # candidate was confirmed by a full inner maximization
        want = {0: 14, 1: 14, 2: 14, 3: 19, 4: 14, 5: 14, 6: 14, 7: 14}
        for k, iterations in want.items():
            sol = naive_alpha(NORMAL_ASSET, Preferences(eta=0.5 + 0.05 * k, lambda0=2.25), power2)
            assert sol.iterations == iterations
            assert sol.converged == (k < 4)


class TestPanelWork:
    """Solves slice the distribution's one panel set: a work count, free of timing noise."""

    @pytest.fixture
    def work(self, monkeypatch):
        import bbl.distributions as distributions

        queries, panels = [], []
        real_nodes, real_query = distributions._panel_nodes, ContinuousDistribution.quad_nodes

        def nodes(lo, hi):
            panels[-1] += lo.size
            return real_nodes(lo, hi)

        def query(dist, *args):
            queries.append(args)
            panels.append(0)
            return real_query(dist, *args)

        monkeypatch.setattr(distributions, "_panel_nodes", nodes)
        monkeypatch.setattr(ContinuousDistribution, "quad_nodes", query)
        return queries, panels

    @pytest.mark.parametrize("solve", ["rational", "sophisticated", "naive"])
    def test_sub_interval_queries_renode_at_most_two_panels(self, work, solve, power2):
        queries, panels = work
        asset = Asset(1.0, ContinuousDistribution.normal(0.05, 0.2))
        asset.excess.quad_nodes()
        queries.clear(), panels.clear()
        prefs = Preferences(eta=0.6, lambda0=2.25)
        {"rational": lambda: rational_alpha(asset, power2),
         "sophisticated": lambda: sophisticated_alpha(asset, prefs, power2),
         "naive": lambda: naive_alpha(asset, prefs, power2)}[solve]()
        assert queries
        for args, count in zip(queries, panels):
            assert count <= (2 if args else 0)

    @pytest.mark.parametrize("excess", [ContinuousDistribution.normal(0.05, 0.2),
                                        ContinuousDistribution.mixture([(0.8, 0.06, 0.15), (0.2, -0.2, 0.05)])],
                             ids=["normal", "mixture"])
    def test_sign_regions_hold_the_whole_set_and_two_clipped_panels(self, excess, calibrated_asset, power2):
        for asset in (Asset(1.0, excess), calibrated_asset):
            grid = _AssetGrid(asset, Preferences(eta=0.6, lambda0=2.25))
            whole = grid.nodes[0].size
            for alpha in (-0.3, 0.3):
                assert whole <= grid.region(alpha).x.size <= whole + 40


def slope_terms(asset, utility, alpha, prefs=None, short=False):
    """Per-node terms of the objective's slope at ``alpha``: the objective grid,
    then for the sophisticated agent the loss nodes of a sign region (above the
    p_star quantile on the ``short`` side, below the 1 - p_star quantile on the
    long side) weighted by lambda - 1."""
    dist = asset.excess
    x, w = dist.quad_nodes()
    if prefs is not None:
        p_star, (lo, hi) = cutoff_probability(prefs), dist.support
        lx, lw = (dist.quad_nodes(dist.quantile(p_star), hi) if short
                  else dist.quad_nodes(lo, dist.quantile(1.0 - p_star)))
        x, w = np.concatenate((x, lx)), np.concatenate((w, (prefs.lambda0 - 1.0) * lw))
    return w * x * utility.marginal_array(asset.r_f + alpha * x)


class TestConcaveCorpus:
    """Rational and sophisticated shares on the seeded corpus of ``naive_corpus``."""

    BOUNDS = (-10.0, 10.0)

    @pytest.fixture(scope="class")
    def solved(self):
        cases = []
        for asset, prefs, utility in naive_corpus():
            cases.append((asset, None, utility, rational_alpha(asset, utility, self.BOUNDS),
                          rational_objective(asset, utility)))
            cases.append((asset, prefs, utility, sophisticated_alpha(asset, prefs, utility, self.BOUNDS),
                          sophisticated_objective(asset, prefs, utility)))
        return cases

    def test_no_grid_point_beats_the_share(self, solved):
        spacing = (self.BOUNDS[1] - self.BOUNDS[0]) / 2000
        for asset, prefs, utility, sol, objective in solved:
            scale = max(1.0, abs(sol.value))
            if sol.alpha != 0:
                # the solver's value is its own objective, term for term
                assert objective(sol.alpha) == sol.value
            else:
                # at the kink the objective reads the alpha >= 0 side, the solver either side
                assert abs(objective(sol.alpha) - sol.value) <= 1e-12 * scale
            grid_alpha, grid_value = grid_search_alpha(objective, self.BOUNDS)
            assert grid_value - sol.value <= 1e-9 * scale
            assert abs(grid_alpha - sol.alpha) <= spacing

    def test_first_order_condition(self, solved):
        kinds = set()
        for asset, prefs, utility, sol, _ in solved:
            lo, hi = _feasible_bounds(asset, utility, self.BOUNDS)
            terms = slope_terms(asset, utility, sol.alpha, prefs, short=sol.alpha < 0)
            slope, tol = float(np.sum(terms)), 1e-10 * float(np.sum(np.abs(terms)))
            if sol.alpha == lo:
                assert slope <= tol
            elif sol.alpha == hi:
                assert slope >= -tol
            elif sol.alpha == 0.0 and prefs is not None:
                # the kink between the sign regions: neither side improves
                assert slope <= tol
                below = slope_terms(asset, utility, 0.0, prefs, short=True)
                assert float(np.sum(below)) >= -1e-10 * float(np.sum(np.abs(below)))
            else:
                kinds.add((prefs is None, utility.kind))
                assert abs(slope) <= tol
        # interior shares for both agents under log and power utility
        assert kinds == {(True, "log"), (True, "power"), (False, "log"), (False, "power")}

    def test_linear_utility_gives_a_corner(self, solved):
        for asset, prefs, utility, sol, _ in solved:
            if utility.kind == "linear":
                corners = self.BOUNDS if prefs is None else (*self.BOUNDS, 0.0)
                assert sol.alpha in corners

    def test_iterations_count_slope_evaluations(self, solved):
        # two end slopes per region (one region for rational, two for
        # sophisticated), and more only where a root is bracketed
        for asset, prefs, utility, sol, _ in solved:
            ends = 2 if prefs is None else 4
            assert sol.converged
            if utility.kind == "linear":
                assert sol.iterations == ends
            else:
                assert sol.iterations >= ends


class TestSophisticated:
    def test_vanishing_loss_aversion_recovers_rational(self, calibrated_asset, power2):
        lam = 1.0 + 1e-9
        prefs = Preferences(eta=eta_for_cutoff(0.5, lam), lambda0=lam)
        sol = sophisticated_alpha(calibrated_asset, prefs, power2)
        assert sol.alpha == pytest.approx(rational_alpha(calibrated_asset, power2).alpha, abs=1e-4)

    def test_loss_moment_sign_rule(self, calibrated_asset, power2):
        # overweighting good (bad) loss-region returns pushes the share above (below) rational
        rational = rational_alpha(calibrated_asset, power2)
        dist = calibrated_asset.excess
        for p_star in (0.1, 0.85):
            prefs = prefs_for(p_star)
            cut = dist.quantile(1.0 - p_star)
            x, w = dist.quad_nodes(dist.support[0], cut)
            wealth = calibrated_asset.r_f + rational.alpha * x
            weighted = float(w @ (wealth ** -2.0 * x))
            sol = sophisticated_alpha(calibrated_asset, prefs, power2)
            if weighted > 0:
                assert sol.alpha > rational.alpha
            else:
                assert sol.alpha < rational.alpha

    def test_oracle_equivalence(self, calibrated_asset, power2):
        prefs = prefs_for(0.35)
        bounds = (-10.0, 10.0)
        sol = sophisticated_alpha(calibrated_asset, prefs, power2, bounds)
        alpha_oracle, _ = grid_search_alpha(
            sophisticated_objective(calibrated_asset, prefs, power2), bounds)
        assert abs(sol.alpha - alpha_oracle) <= 20.0 / 2000.0

    def test_value_continuity_at_zero(self, calibrated_asset, power2):
        objective = sophisticated_objective(calibrated_asset, prefs_for(0.6), power2)
        assert abs(objective(1e-6) - objective(-1e-6)) <= 1e-6

    def test_share_moves_against_certainty_equivalent(self, calibrated_asset, power2):
        for p_star in (0.2, 0.5, 0.8, 0.95):
            prefs = prefs_for(p_star)
            sol = sophisticated_alpha(calibrated_asset, prefs, power2)
            if sol.alpha <= 0:
                continue
            r_ce = certainty_equivalent_excess(calibrated_asset, sol.alpha, prefs, power2)
            if abs(r_ce) <= 0.05:
                continue
            bumped = sophisticated_alpha(calibrated_asset, prefs_for(p_star + 0.01), power2)
            assert (bumped.alpha - sol.alpha) * (-r_ce) > 0


class TestCertaintyEquivalent:
    def test_linear_equals_subjective_expectation(self):
        prefs = prefs_for(0.5)
        excess = ContinuousDistribution.normal(1.0, 1.0)
        asset = Asset(0.0, excess)
        r_ce = certainty_equivalent_excess(asset, 0.7, prefs, LINEAR)
        assert r_ce == pytest.approx(subjective_expectation(excess, 0.5), abs=1e-9)
        assert r_ce == pytest.approx(1.0, abs=1e-9)

    def test_short_position_mirrors_cutoff(self):
        prefs = prefs_for(0.3)
        excess = ContinuousDistribution.normal(0.0, 1.0)
        asset = Asset(0.0, excess)
        r_ce = certainty_equivalent_excess(asset, -0.5, prefs, LINEAR)
        assert r_ce == pytest.approx(excess.quantile(0.3), abs=1e-9)

    def test_power_round_trip(self, calibrated_asset, power2):
        prefs = prefs_for(0.4)
        alpha = 0.45
        r_ce = certainty_equivalent_excess(calibrated_asset, alpha, prefs, power2)
        cut = calibrated_asset.excess.quantile(0.6)
        expected_utility = power2.value(calibrated_asset.r_f + alpha * cut)
        assert power2.value(calibrated_asset.r_f + alpha * r_ce) == pytest.approx(
            expected_utility, abs=1e-9)

    @pytest.mark.parametrize("alpha", [1e-9, 6.45e-7, 0.3, -0.5])
    @pytest.mark.parametrize("utility", [LINEAR, LOG, ConsumptionUtility("power", 2.0)],
                             ids=["linear", "log", "power2"])
    def test_is_the_cutoff_quantile(self, alpha, utility, calibrated_asset):
        """``u(r_f + alpha r) = u(r_f + alpha cut)`` gives ``r = cut`` exactly, also at
        shares so small that inverting ``u`` would lose most digits."""
        prefs = Preferences(0.7, 2.25)
        p_star = cutoff_probability(prefs)
        for asset in (NORMAL_ASSET, calibrated_asset):
            cut = asset.excess.quantile(1.0 - p_star if alpha > 0 else p_star)
            assert certainty_equivalent_excess(asset, alpha, prefs, utility) == cut

    def test_zero_share_rejected(self, calibrated_asset):
        with pytest.raises(DomainError):
            certainty_equivalent_excess(calibrated_asset, 0.0, prefs_for(0.5), LINEAR)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("utility", [LINEAR, ConsumptionUtility("power", 2.0)])
    def test_non_finite_share_named(self, alpha, utility):
        """On the README asset at eta = 0.7 a NaN or infinite share is an input error
        naming ``alpha``, not a NaN result (nor a numpy warning on the way to one)."""
        prefs = Preferences(0.7, 2.25)
        with pytest.raises(ValueError, match="alpha"):
            certainty_equivalent_excess(NORMAL_ASSET, alpha, prefs, utility)
        with pytest.raises(ValueError, match="alpha"):
            naive_fixed_objective(NORMAL_ASSET, prefs, utility, alpha)


class TestLazyGrid:
    """A solver builds only the quadrature node sets it reads."""

    @pytest.fixture
    def node_sets(self, monkeypatch):
        calls = []
        quad_nodes = ContinuousDistribution.quad_nodes

        def counted(dist, *args, **kwargs):
            calls.append(args)
            return quad_nodes(dist, *args, **kwargs)

        monkeypatch.setattr(ContinuousDistribution, "quad_nodes", counted)
        return calls

    def test_rational_builds_the_whole_grid_only(self, node_sets, calibrated_asset, power2):
        rational_alpha(calibrated_asset, power2)
        assert node_sets == [()]

    @pytest.mark.parametrize("asset", ["calibrated", "normal"])
    def test_sophisticated_builds_no_gain_nodes(self, node_sets, asset, calibrated_asset, power2):
        asset = calibrated_asset if asset == "calibrated" else NORMAL_ASSET
        sophisticated_alpha(asset, prefs_for(0.6), power2)
        # the whole grid plus one loss region per sign of the share
        assert len(node_sets) == 3

    def test_certainty_equivalent_builds_no_nodes(self, node_sets, calibrated_asset, power2):
        certainty_equivalent_excess(calibrated_asset, 0.3, prefs_for(0.6), power2)
        assert node_sets == []


class TestFixedShareBounds:
    """Bounds ``lo == hi`` fix the share wherever wealth stays in the domain."""

    @pytest.mark.parametrize("share", [0.3, 0.0, -0.3])
    @pytest.mark.parametrize("utility", [LOG, ConsumptionUtility("power", 2.0)])
    def test_every_agent_returns_the_share(self, share, utility):
        prefs = prefs_for(0.6)
        for sol in (rational_alpha(NORMAL_ASSET, utility, (share, share)),
                    naive_alpha(NORMAL_ASSET, prefs, utility, (share, share)),
                    sophisticated_alpha(NORMAL_ASSET, prefs, utility, (share, share))):
            assert sol.alpha == share
            assert sol.converged


class TestNonFiniteBounds:
    """A NaN or infinite bound is an input error that names the bound, never a hang."""

    @pytest.mark.parametrize("bounds, name", [((float("nan"), 1.0), "bounds.lo"), ((-1.0, float("nan")), "bounds.hi"),
                                              ((-np.inf, 1.0), "bounds.lo"), ((-1.0, np.inf), "bounds.hi")])
    @pytest.mark.parametrize("utility", [LINEAR, ConsumptionUtility("power", 2.0)])
    def test_every_agent_and_the_scan_name_the_bound(self, bounds, name, utility):
        prefs = prefs_for(0.6)
        for solve in (lambda: rational_alpha(NORMAL_ASSET, utility, bounds),
                      lambda: naive_alpha(NORMAL_ASSET, prefs, utility, bounds),
                      lambda: sophisticated_alpha(NORMAL_ASSET, prefs, utility, bounds),
                      lambda: grid_search_alpha(rational_objective(NORMAL_ASSET, utility), bounds)):
            with pytest.raises(ValueError, match=name):
                solve()


class TestSolutionInvariants:
    @pytest.mark.parametrize("solve", [naive_alpha, sophisticated_alpha], ids=["naive", "sophisticated"])
    def test_biased_r_ce_is_the_cutoff_quantile(self, solve, power2):
        """A biased agent's ``r_ce`` is its belief cutoff: the ``1 - p_star`` quantile of
        the excess return for a long share, the ``p_star`` quantile for a short one."""
        readme = [(NORMAL_ASSET, Preferences(eta=eta, lambda0=2.25), power2) for eta in (0.70, 0.75, 0.80, 0.85)]
        signs = set()
        for asset, prefs, utility in naive_corpus() + eta_corpus() + readme:
            sol = solve(asset, prefs, utility, (-10.0, 10.0))
            if sol.alpha == 0:
                assert sol.r_ce is None
                continue
            p_star = cutoff_probability(prefs)
            assert sol.r_ce == asset.excess.quantile(1.0 - p_star if sol.alpha > 0 else p_star)
            signs.add(sol.alpha > 0)
        assert signs == {True, False}

    def test_round_trip_belief_expectation(self, calibrated_asset, power2):
        for p_star in (0.25, 0.75):
            prefs = prefs_for(p_star)
            for sol in (naive_alpha(calibrated_asset, prefs, power2),
                        sophisticated_alpha(calibrated_asset, prefs, power2)):
                if sol.alpha == 0:
                    continue
                assert power2.value(calibrated_asset.r_f + sol.alpha * sol.r_ce) == \
                    pytest.approx(sol.belief_expectation, abs=1e-9)

    def test_bounds_respected(self, calibrated_asset, power2):
        for bounds in ((-0.2, 0.2), (0.0, 0.3)):
            for solve in (rational_alpha,):
                sol = solve(calibrated_asset, power2, bounds)
                assert bounds[0] - 1e-12 <= sol.alpha <= bounds[1] + 1e-12
            sol = naive_alpha(calibrated_asset, prefs_for(0.5), power2, bounds)
            assert bounds[0] - 1e-12 <= sol.alpha <= bounds[1] + 1e-12
            sol = sophisticated_alpha(calibrated_asset, prefs_for(0.5), power2, bounds)
            assert bounds[0] - 1e-12 <= sol.alpha <= bounds[1] + 1e-12
