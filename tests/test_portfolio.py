import random
import re
import subprocess
import sys
from dataclasses import replace

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
    partial_expectation,
    rational_alpha,
    sophisticated_alpha,
    subjective_expectation,
)
from bbl import portfolio
from bbl.beliefs import _tilt_factors
from bbl.portfolio import (
    _AssetGrid,
    _best_share,
    _feasible_bounds,
    _naive_beliefs,
    _sign_regions,
    _slope_at_zero,
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
                prefs = prefs_for(rng.uniform(0.1, 0.9), rng.uniform(1.5, 3.0))
                cases.append((Asset(1.0, excess), prefs, utility))
    return cases


def cutoffs(asset, prefs):
    """The belief cutoffs ``cut(+) = q(1 - p_star)`` and ``cut(-) = q(p_star)`` of the long
    and short sign regions."""
    p_star = cutoff_probability(prefs)
    return asset.excess.quantile(1.0 - p_star), asset.excess.quantile(p_star)


def no_trade(asset, prefs):
    """The naive no-trade criterion ``q(1 - p_star) <= 0 <= q(p_star)``."""
    cut_long, cut_short = cutoffs(asset, prefs)
    return cut_long <= 0.0 <= cut_short


def sophisticated_moments(asset, prefs):
    """``(s(0+), s(0-))``, the sophisticated objective's slopes at 0 over ``eta u'(r_f)``:
    ``E x + (lambda - 1) PE(q(1 - p_star))`` and ``E x + (lambda - 1) (E x - PE(q(p_star)))``,
    where ``PE(a)`` is the partial expectation below ``a``."""
    dist, lam = asset.excess, prefs.lambda0
    cut_long, cut_short = cutoffs(asset, prefs)
    mean = dist.mean()
    return (mean + (lam - 1.0) * partial_expectation(dist, cut_long),
            mean + (lam - 1.0) * (mean - partial_expectation(dist, cut_short)))


def searched_regions(regions, asset, prefs):
    """The sophisticated sign regions that are searched: all but those ending at 0 whose
    slope there points into 0."""
    up, down = sophisticated_moments(asset, prefs)
    return [(lo, hi) for lo, hi in regions if not (lo == 0.0 and up <= 0 or hi == 0.0 and down >= 0)]


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

    @pytest.mark.parametrize("excess", [ContinuousDistribution.normal(0.05, 0.2),
                                        ContinuousDistribution.tabulated((0.0, 1.0), (1.0, 1.0)),
                                        ContinuousDistribution.tabulated((-1.0, 0.0), (1.0, 1.0))],
                             ids=["spans-0", "starts-at-0", "ends-at-0"])
    @pytest.mark.parametrize("bounds", [(-10.0, 10.0), (0.0, 0.0), (0.5, 1.0)])
    def test_infeasible_domain_raises(self, excess, bounds):
        # r_f = 0: the share 0 leaves wealth 0, and any other share makes it negative on
        # one side of 0; the margin at a zero domain bound is 1e-10, so 0 stays refused
        prefs = prefs_for(0.6)
        for utility in (LOG, ConsumptionUtility("power", 2.0)):
            for solve in (lambda: rational_alpha(Asset(0.0, excess), utility, bounds),
                          lambda: naive_alpha(Asset(0.0, excess), prefs, utility, bounds),
                          lambda: sophisticated_alpha(Asset(0.0, excess), prefs, utility, bounds)):
                with pytest.raises(DomainError, match="no risky share"):
                    solve()

    @pytest.mark.parametrize("r_f", [1.0, 1e-3, 1e3])
    def test_domain_bounds_scale_with_the_bound(self, r_f):
        # each bound moves in by 1e-10 of its size, so wealth at the support's ends stays
        # 1e-10 r_f above 0, whatever the scale
        asset = Asset(r_f, ContinuousDistribution.tabulated((-0.5, 2.0), (0.4, 0.4)))
        lo, hi = _feasible_bounds(asset, LOG, (-1e6, 1e6))
        assert lo == pytest.approx(-r_f / 2.0 * (1.0 - 1e-10), rel=1e-15, abs=0.0)
        assert hi == pytest.approx(2.0 * r_f * (1.0 - 1e-10), rel=1e-15, abs=0.0)
        assert _feasible_bounds(asset, LINEAR, (-1e6, 1e6)) == (-1e6, 1e6)

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
            grid_alpha, grid_value = grid_search_alpha(objective, self.BOUNDS)
            assert grid_value - sol.value <= 1e-9 * max(1.0, abs(sol.value))
            assert abs(grid_alpha - sol.alpha) <= spacing
        # every distribution kind and utility kind has converged cases
        assert len(kinds) == 9

    def test_every_share_is_evaluated_exactly(self, solved):
        # converged or not, the value is the frozen objective at the share, term for term;
        # h is evaluated only where a sign region is searched, which is where the agent trades
        for asset, prefs, utility, sol in solved:
            lo, hi = self.BOUNDS
            assert lo <= sol.alpha <= hi
            assert (sol.iterations > 0) == (not no_trade(asset, prefs))
            assert sol.value == naive_fixed_objective(asset, prefs, utility, sol.alpha)(sol.alpha)
        assert {sol.converged for *_, sol in solved} == {True, False}

    def test_converged_shares_are_inner_best_responses(self, solved):
        # the best response under the beliefs frozen at the share is the share
        for asset, prefs, utility, sol in solved:
            if not sol.converged:
                continue
            lo, hi = _feasible_bounds(asset, utility, self.BOUNDS)
            x, w = _naive_beliefs(_AssetGrid(asset, prefs, utility), sol.alpha)
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
            grid = _AssetGrid(asset, prefs, utility)
            below, above = (grid.tilt(sol.alpha + d).h for d in (-1e-7, 1e-7))
            assert below * above < 0
            roots += 1
        assert roots > 0

    def test_iterations_count_frozen_slope_evaluations(self, monkeypatch):
        # the distinct shares passed to the kernel, batched or one at a time: a sample whose
        # beliefs a value needs passes again, alone; a searched region's end at 0 reads the
        # limit of h, so it passes six samples
        shares = set()
        kernel = portfolio._tilt_kernel
        monkeypatch.setattr(portfolio, "_tilt_kernel", lambda grid, s: shares.update(
            [s] if isinstance(s, float) else s.tolist()) or kernel(grid, s))
        for asset, prefs, utility in naive_corpus():
            shares.clear()
            sol = naive_alpha(asset, prefs, utility, self.BOUNDS)
            cut_long, cut_short = cutoffs(asset, prefs)
            assert sol.iterations == len(shares) >= 6 * ((cut_long > 0) + (cut_short < 0))

    @pytest.mark.parametrize("eta", [0.70, 0.75, 0.80, 0.85])
    def test_readme_asset_has_no_fixed_point(self, eta, power2):
        prefs = Preferences(eta=eta, lambda0=2.25)
        sol = naive_alpha(NORMAL_ASSET, prefs, power2)
        assert not sol.converged
        objective = naive_fixed_objective(NORMAL_ASSET, prefs, power2, sol.alpha)
        assert sol.value == objective(sol.alpha)
        # no trade: the only fixed point is the generalised one at 0
        assert sol.alpha == 0.0
        assert sol.r_ce is None

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
    """A naive candidate -- a Brent root of ``h`` or a bound ``h`` points past -- is a fixed
    point with no confirmation: the inner best response under the beliefs frozen at it is
    the candidate."""

    BOUNDS = (-10.0, 10.0)

    def test_converged_shares_are_inner_best_responses(self):
        kinds = set()
        for asset, prefs, utility in eta_corpus():
            sol = naive_alpha(asset, prefs, utility, self.BOUNDS)
            if not sol.converged:
                continue
            kinds.add((asset.excess.kind, utility.kind))
            lo, hi = _feasible_bounds(asset, utility, self.BOUNDS)
            x, w = _naive_beliefs(_AssetGrid(asset, prefs, utility), sol.alpha)
            best, _ = _best_share(x, w, asset.r_f, utility, lo, hi)
            assert abs(best - sol.alpha) <= 1e-8
        assert len(kinds) == 9

    def test_every_value_is_the_frozen_objective_at_the_share(self):
        converged = set()
        for asset, prefs, utility in eta_corpus():
            sol = naive_alpha(asset, prefs, utility, self.BOUNDS)
            converged.add(sol.converged)
            assert sol.value == naive_fixed_objective(asset, prefs, utility, sol.alpha)(sol.alpha)
        assert converged == {True, False}

    def test_iterations_match_the_brent_confirmed_solver(self, power2):
        # h evaluations on the README asset at the benchmark's eta grid: six samples per
        # searched region (its end at 0 reads the limit of h) plus Brent's iterates, and none
        # where the no-trade criterion skips both regions
        want = {0: 12, 1: 12, 2: 6, 3: 11, 4: 0, 5: 0, 6: 0, 7: 0}
        for k, iterations in want.items():
            sol = naive_alpha(NORMAL_ASSET, Preferences(eta=0.5 + 0.05 * k, lambda0=2.25), power2)
            assert sol.iterations == iterations
            assert sol.converged == (k < 4)


def assert_slope_tends_to_the_cutoff(asset, prefs, utility, slope):
    """``|h(alpha) / u'(r_f) - cut|`` is at most ``slope |alpha|`` for ``|alpha|`` from 1e-3 to
    1e-6 on both sign regions."""
    grid = _AssetGrid(asset, prefs, utility)
    marginal = float(utility.marginal_array(np.array(asset.r_f)))
    for alpha in (1e-3, 1e-4, 1e-5, 1e-6, -1e-3, -1e-4, -1e-5, -1e-6):
        assert abs(grid.tilt(alpha).h / marginal - grid.cut(alpha)) <= slope * abs(alpha)


class TestNoTradeTheorem:
    """The naive investor abstains, its only fixed point the generalised one at 0, iff
    ``q(1 - p_star) <= 0 <= q(p_star)``.  Beliefs tilted at ``alpha`` make subjective expected
    utility ``u(r_f + alpha cut)``, so concavity gives ``alpha h(alpha) <= u(r_f + alpha cut) -
    u(r_f)``: a cutoff of the sign opposite to its region's shares keeps ``h`` pointing into 0
    over the whole region, and ``h(0±) = u'(r_f) cut(±)`` puts a fixed point in a region whose
    cutoff has its shares' sign."""

    BOUNDS = (-10.0, 10.0)

    def test_no_trade_iff_the_cutoffs_bracket_zero(self):
        kinds = set()
        for asset, prefs, utility in naive_corpus() + eta_corpus():
            sol = naive_alpha(asset, prefs, utility, self.BOUNDS)
            assert sol.converged != no_trade(asset, prefs)
            if not sol.converged:
                assert sol.alpha == 0.0
                kinds.add((asset.excess.kind, utility.kind))
        # every distribution kind and utility kind has no-trade cases
        assert len(kinds) == 9

    def test_a_trading_pessimist_takes_the_sign_of_its_cutoff(self):
        # mirrored assets give the short trades: the corpus's pessimists trade long only
        signs = set()
        for asset, prefs, utility in naive_corpus() + eta_corpus():
            if cutoff_probability(prefs) <= 0.5:
                continue
            for excess in (asset.excess, mirrored(asset.excess)):
                traded = Asset(asset.r_f, excess)
                sol = naive_alpha(traded, prefs, utility, self.BOUNDS)
                if not sol.converged:
                    continue
                cut_long, cut_short = cutoffs(traded, prefs)
                # a pessimist's cut(-) is at least its cut(+): one sign region trades
                assert (cut_long > 0) != (cut_short < 0)
                assert sol.alpha > 0 if cut_long > 0 else sol.alpha < 0
                signs.add(sol.alpha > 0)
        assert signs == {True, False}

    @pytest.mark.parametrize("eta", [0.6, 0.7, 0.85])
    @pytest.mark.parametrize("utility", [LINEAR, LOG, ConsumptionUtility("power", 2.0)],
                             ids=["linear", "log", "power2"])
    def test_slope_tends_to_the_cutoff_at_zero(self, eta, utility):
        # measured worst 0.18 alpha (power2, eta = 0.85, short); linear utility reads h = cut
        # up to rounding
        assert_slope_tends_to_the_cutoff(NORMAL_ASSET, Preferences(eta=eta, lambda0=2.25), utility, 0.25)

    def test_slope_tends_to_the_cutoff_at_zero_on_the_corpora(self):
        # measured worst 0.78 alpha
        for asset, prefs, utility in naive_corpus() + eta_corpus():
            assert_slope_tends_to_the_cutoff(asset, prefs, utility, 1.0)

    # (bounds, converged at eta = 0.6, 0.7, 0.85), for every utility, on the README asset: the
    # regions ending at 0 whose cutoff points into 0 are skipped, and 0 is a fixed point
    # where the objective grid's best share is exactly 0
    TABLE = [((0.0, 10.0), (True, False, False)), ((-10.0, 0.0), (True, True, True)),
             ((0.0, 0.0), (True, True, True)), ((0.3, 0.3), (True, True, True)),
             ((0.3, 1.0), (True, True, True)), ((-1.0, -0.3), (True, True, True)),
             ((-0.5, 0.5), (True, False, False))]

    @pytest.mark.parametrize("bounds, verdicts", TABLE, ids=[str(b) for b, _ in TABLE])
    @pytest.mark.parametrize("utility", [LINEAR, LOG, ConsumptionUtility("power", 2.0)],
                             ids=["linear", "log", "power2"])
    def test_bounds_at_zero(self, bounds, verdicts, utility):
        for eta, converged in zip((0.6, 0.7, 0.85), verdicts):
            prefs = Preferences(eta=eta, lambda0=2.25)
            sol = naive_alpha(NORMAL_ASSET, prefs, utility, bounds)
            assert sol.converged == converged
            assert sol.value == naive_fixed_objective(NORMAL_ASSET, prefs, utility, sol.alpha)(sol.alpha)
            if not converged or bounds[1] == 0.0:
                # no trade, or the zero candidate: no sign region is searched
                assert sol.alpha == 0.0
                assert sol.iterations == 0

    def test_a_share_whose_wealth_rounds_to_r_f_keeps_objective_beliefs(self):
        # log utility at r_f = 1 and a share of 1e-20: every node's utility is log 1 = 0, as at
        # 0, so the tilt's system is singular and the beliefs stay objective
        prefs = Preferences(eta=0.6, lambda0=2.25)
        grid = _AssetGrid(NORMAL_ASSET, prefs, LOG)
        assert grid.tilt(1e-20)[:2] == (1.0, 1.0)
        sol = naive_alpha(NORMAL_ASSET, prefs, LOG, (1e-20, 1e-20))
        assert sol.converged and sol.alpha == 1e-20
        assert sol.value == naive_fixed_objective(NORMAL_ASSET, prefs, LOG, 1e-20)(1e-20)


class TestSampleKernel:
    """Each searched sign region's samples are one kernel call on an array of shares; those
    batched tilts only decide signs and Brent brackets, and values read one-share tilts."""

    BOUNDS = (-10.0, 10.0)

    @pytest.fixture
    def batches(self, monkeypatch):
        calls = []
        kernel = portfolio._tilt_kernel

        def recorded(grid, shares):
            tilts = kernel(grid, shares)
            if not isinstance(shares, float):
                calls.append((grid, shares.tolist(), tilts))
            return tilts

        monkeypatch.setattr(portfolio, "_tilt_kernel", recorded)
        return calls

    def test_one_kernel_call_per_sign_region(self, batches):
        # a region is searched where its cutoff has the sign of its shares; its end at 0
        # reads the limit of h, so the kernel takes the other six samples
        for asset, prefs, utility in naive_corpus():
            batches.clear()
            naive_alpha(asset, prefs, utility, self.BOUNDS)
            cut_long, cut_short = cutoffs(asset, prefs)
            assert [len(shares) for _, shares, _ in batches] == [6] * ((cut_short < 0) + (cut_long > 0))

    def test_batched_slopes_agree_with_one_share_slopes(self, batches):
        # h's two tilted terms set its scale; near alpha = 0 the tilt's determinant vanishes
        # like the share, which scales a rounding of the sums by 1 / |alpha|
        for asset, prefs, utility in naive_corpus():
            naive_alpha(asset, prefs, utility, self.BOUNDS)
        checked = 0
        for grid, shares, tilts in batches:
            reg, utility = grid.region(shares[0]), grid.utility
            for alpha, batched in zip(shares, tilts):
                tilt = grid.tilt(alpha)  # one share at a time
                m = utility.marginal_array(grid.asset.r_f + alpha * reg.x)
                terms = (abs(tilt.c_g * float(reg.wx_gain @ m[:reg.k]))
                         + abs(tilt.c_l * float(reg.wx_loss @ m[reg.k:])))
                assert np.sign(batched.h) == np.sign(tilt.h)
                assert abs(batched.h - tilt.h) <= 1e-12 * terms * max(1.0, 1.0 / abs(alpha))
                checked += 1
        assert checked == 6 * len(batches) > 0

    def test_value_array_calls_on_the_benchmark_inputs(self, monkeypatch, calibrated_asset, power2):
        # the 16 naive solves of the portfolio-shares benchmark at seed 1: the calibrated
        # asset on the eta grid jittered by the seed, the README asset on the grid itself
        calls = []
        value_array = ConsumptionUtility.value_array
        monkeypatch.setattr(ConsumptionUtility, "value_array",
                            lambda utility, z: calls.append(z) or value_array(utility, z))
        rng, etas = random.Random(1), [0.5 + 0.05 * k for k in (0, 4, 2, 6, 1, 5, 3, 7)]
        cases = ([(calibrated_asset, eta + 0.05 * rng.random()) for eta in etas]
                 + [(NORMAL_ASSET, eta) for eta in etas])
        for asset, eta in cases:
            naive_alpha(asset, Preferences(eta=eta, lambda0=2.25), power2)
        assert len(calls) <= 11 * len(cases)


class TestPanelWork:
    """Solves slice the distribution's one panel set: a work count, free of timing noise."""

    @pytest.fixture
    def work(self, monkeypatch):
        import bbl.distributions as distributions

        queries, panels = [], []
        real_nodes = distributions._panel_nodes

        def nodes(lo, hi):
            panels[-1] += lo.size
            return real_nodes(lo, hi)

        def counted(name):
            real = getattr(ContinuousDistribution, name)

            def query(dist, *args):
                queries.append((name, args))
                panels.append(0)
                return real(dist, *args)

            monkeypatch.setattr(ContinuousDistribution, name, query)

        monkeypatch.setattr(distributions, "_panel_nodes", nodes)
        counted("quad_nodes")
        counted("_split")  # the naive agent's sign regions: one split of the panel set per cutoff
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
        for (_, args), count in zip(queries, panels):
            assert count <= (2 if args else 0)
        if solve == "naive":
            # the short region's cutoff is positive, so only the long region is split
            assert sorted(name for name, _ in queries) == ["_split", "quad_nodes"]

    @pytest.mark.parametrize("excess", [ContinuousDistribution.normal(0.05, 0.2),
                                        ContinuousDistribution.mixture([(0.8, 0.06, 0.15), (0.2, -0.2, 0.05)])],
                             ids=["normal", "mixture"])
    def test_sign_regions_hold_the_whole_set_and_two_clipped_panels(self, excess, calibrated_asset, power2):
        for asset in (Asset(1.0, excess), calibrated_asset):
            grid = _AssetGrid(asset, Preferences(eta=0.6, lambda0=2.25))
            whole = grid.nodes[0].size
            for alpha in (-0.3, 0.3):
                assert whole <= grid.region(alpha).x.size <= whole + 40


def overweighted_nodes(asset, prefs=None, short=False):
    """The objective grid, then for the sophisticated agent the loss nodes of a sign
    region (above the p_star quantile on the ``short`` side, below the 1 - p_star
    quantile on the long side) weighted by lambda - 1: the paper's loss overweighting
    written apart from the solver's one node set per sign region."""
    dist = asset.excess
    x, w = dist.quad_nodes()
    if prefs is not None:
        p_star = cutoff_probability(prefs)
        lx, lw = dist._split(dist.quantile(p_star))[1] if short else dist._split(dist.quantile(1.0 - p_star))[0]
        x, w = np.concatenate((x, lx)), np.concatenate((w, (prefs.lambda0 - 1.0) * lw))
    return x, w


def slope_terms(asset, utility, alpha, prefs=None, short=False):
    """Per-node terms of the objective's slope at ``alpha`` over ``overweighted_nodes``."""
    x, w = overweighted_nodes(asset, prefs, short)
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
            # the solver's value is its own objective, term for term; at the kink alpha = 0
            # both read the alpha >= 0 node set, whichever sign region reached it
            assert objective(sol.alpha) == sol.value
            grid_alpha, grid_value = grid_search_alpha(objective, self.BOUNDS)
            assert grid_value - sol.value <= 1e-9 * scale
            assert abs(grid_alpha - sol.alpha) <= spacing

    def test_zero_share_value_is_the_objective_at_zero(self):
        zeros = 0
        for asset, prefs, utility in eta_corpus():
            sol = sophisticated_alpha(asset, prefs, utility, self.BOUNDS)
            if sol.alpha == 0.0:
                assert sol.value == sophisticated_objective(asset, prefs, utility)(0.0)
                zeros += 1
        assert zeros > 0

    def test_sophisticated_objective_is_the_overweighted_reference(self):
        # the region's nodes, loss weights times lambda, against the objective grid plus the
        # loss half weighted lambda - 1: measured worst 5.1e-16 of the terms' absolute sum
        # (log utility at 0 sums zeros, exactly)
        for asset, prefs, utility in naive_corpus() + eta_corpus():
            objective = sophisticated_objective(asset, prefs, utility)
            lo, hi = _feasible_bounds(asset, utility, self.BOUNDS)
            share = sophisticated_alpha(asset, prefs, utility, self.BOUNDS).alpha
            for alpha in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi, share):
                x, w = overweighted_nodes(asset, prefs, short=alpha < 0)
                terms = prefs.eta * w * utility.value_array(asset.r_f + alpha * x)
                assert abs(objective(alpha) - float(np.sum(terms))) <= 2e-15 * float(np.sum(np.abs(terms)))

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
        # two end slopes per searched region (one region for rational; for sophisticated
        # each sign region but one ending at 0 whose slope there points into 0), and more
        # only where a root is bracketed
        skipped = 0
        for asset, prefs, utility, sol, _ in solved:
            regions = [None] if prefs is None else searched_regions(
                _sign_regions(*_feasible_bounds(asset, utility, self.BOUNDS)), asset, prefs)
            skipped += prefs is not None and len(regions) < 2
            ends = 2 * len(regions)
            assert sol.converged
            if utility.kind == "linear":
                assert sol.iterations == ends
            else:
                assert sol.iterations >= ends
        assert skipped > 0


class TestSlopeAtZero:
    """``_slope_at_zero`` gives a biased agent's slope at 0 on a sign region from closed
    forms, and the sophisticated solver skips a region ending at 0 where it points into 0."""

    BOUNDS = [(-10.0, 10.0), (0.0, 10.0), (-10.0, 0.0), (0.3, 1.0), (-1.0, -0.3), (-0.5, 0.5)]

    @staticmethod
    def regions(asset, utility, bounds):
        lo, hi = _feasible_bounds(asset, utility, bounds)
        return _sign_regions(lo, hi) or [(lo, hi)]

    def test_matches_the_slope_summed_over_the_region_nodes(self):
        # the naive beliefs tilted at a tend, as a -> 0, to the factors that give the region's
        # nodes mass 1 and first moment cut; the sophisticated weights are (1, lambda).
        # Measured worst 3.2e-16 (naive) and 1.1e-14 (sophisticated) of the terms' absolute sum
        for asset, prefs, utility in naive_corpus() + eta_corpus():
            grid = _AssetGrid(asset, prefs, utility)
            marginal = float(utility.marginal_array(np.array(asset.r_f)))
            for bounds in self.BOUNDS:
                for lo, hi in self.regions(asset, utility, bounds):
                    end = lo if lo < 0 else hi
                    reg = grid.region(end)
                    s_g, s_l = float(reg.wx_gain.sum()), float(reg.wx_loss.sum())
                    a_g, a_l = float(np.abs(reg.wx_gain).sum()), float(np.abs(reg.wx_loss).sum())
                    c_g, c_l = _tilt_factors(reg.p_gain, reg.p_loss, s_g, s_l, grid.cut(end))
                    assert (abs(_slope_at_zero(grid, end) - marginal * (c_g * s_g + c_l * s_l))
                            <= 1e-15 * marginal * (abs(c_g) * a_g + abs(c_l) * a_l))
                    lam = prefs.lambda0
                    assert (abs(_slope_at_zero(grid, end, lam) - marginal * (s_g + lam * s_l))
                            <= 5e-14 * marginal * (a_g + lam * a_l))

    def test_a_region_is_skipped_where_its_best_share_is_zero(self, monkeypatch):
        searched = []

        def recorded(x, w, r_f, utility, lo, hi):
            searched.append((lo, hi))
            return real(x, w, r_f, utility, lo, hi)

        real = portfolio._best_share
        monkeypatch.setattr(portfolio, "_best_share", recorded)
        skips = set()
        for asset, prefs, utility in naive_corpus() + eta_corpus():
            grid = _AssetGrid(asset, prefs)
            for bounds in self.BOUNDS:
                searched.clear()
                sophisticated_alpha(asset, prefs, utility, bounds)
                for lo, hi in self.regions(asset, utility, bounds):
                    at_zero = real(*grid.weighted(lo, 1.0, prefs.lambda0), asset.r_f, utility, lo, hi)[0] == 0.0
                    assert ((lo, hi) not in searched) == at_zero
                    if at_zero:
                        skips.add((lo < 0, asset.excess.kind, utility.kind))
        # skips on both sign regions, for every distribution kind and utility kind
        assert len(skips) == 18

    def test_sophisticated_no_trade_band(self):
        # the sophisticated investor abstains iff s(0+) <= 0 <= s(0-)
        verdicts = set()
        for asset, prefs, utility in naive_corpus() + eta_corpus():
            up, down = sophisticated_moments(asset, prefs)
            abstains = sophisticated_alpha(asset, prefs, utility, (-10.0, 10.0)).alpha == 0.0
            assert abstains == (up <= 0.0 <= down)
            verdicts.add(abstains)
        assert verdicts == {True, False}


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
            x, w = dist._split(dist.quantile(1.0 - p_star))[0]
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
        for name in ("quad_nodes", "_split"):
            def counted(dist, *args, _name=name, _real=getattr(ContinuousDistribution, name)):
                calls.append(_name)
                return _real(dist, *args)

            monkeypatch.setattr(ContinuousDistribution, name, counted)
        return calls

    def test_rational_builds_the_whole_grid_only(self, node_sets, calibrated_asset, power2):
        rational_alpha(calibrated_asset, power2)
        assert node_sets == ["quad_nodes"]

    @pytest.mark.parametrize("asset", ["calibrated", "normal"])
    @pytest.mark.parametrize("bounds", [(-10.0, 10.0), (0.0, 1.0)])
    def test_sophisticated_splits_once_per_sign_region(self, node_sets, asset, bounds, calibrated_asset, power2):
        asset = calibrated_asset if asset == "calibrated" else NORMAL_ASSET
        prefs = prefs_for(0.6)
        sophisticated_alpha(asset, prefs, power2, bounds)
        # no whole grid: each searched sign region's nodes are one split at its cutoff, and a
        # skipped region's value at 0 reads the alpha >= 0 split
        regions = _sign_regions(*bounds)
        searched = searched_regions(regions, asset, prefs)
        splits = {lo >= 0 for lo, _ in searched} | ({True} if len(searched) < len(regions) else set())
        assert node_sets == ["_split"] * len(splits)

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


class TestBoundsOrder:
    """Bounds with ``lo > hi`` are an input error that quotes them, for every agent and utility."""

    @pytest.mark.parametrize("utility", [LINEAR, ConsumptionUtility("power", 2.0)])
    def test_every_agent_names_the_bounds(self, utility):
        prefs, bounds = prefs_for(0.6), (0.5, -0.5)
        for solve in (lambda: rational_alpha(NORMAL_ASSET, utility, bounds),
                      lambda: naive_alpha(NORMAL_ASSET, prefs, utility, bounds),
                      lambda: sophisticated_alpha(NORMAL_ASSET, prefs, utility, bounds)):
            with pytest.raises(ValueError, match=re.escape("bounds must satisfy lo <= hi, got (0.5, -0.5)")):
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
