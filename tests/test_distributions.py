import dataclasses
import json
import math
import re
import statistics

import numpy as np
import pytest
from scipy import special

from bbl import (
    ContinuousDistribution,
    DomainError,
    Preferences,
    compare,
    eta_for_cutoff,
    naive_value,
    partial_expectation,
    partial_expectation_closed_form,
    simpson_integral,
    sophisticated_value,
    subjective_expectation,
)
from bbl.distributions import _GL_PANELS, _NODE_MASS_TOL, _norm_quantile, _panel_nodes

N01 = ContinuousDistribution.normal(0.0, 1.0)
N11 = ContinuousDistribution.normal(1.0, 1.0)
N02 = ContinuousDistribution.normal(0.0, 2.0)

SKEWED = ContinuousDistribution.mixture([(0.7, -0.5, 0.4), (0.3, 7.0 / 6.0, 0.6)])


def prefs_for(p_star, lam=2.25):
    return Preferences(eta=eta_for_cutoff(p_star, lam), lambda0=lam)


def ndtri_oracle(p):
    return float(special.ndtri(p))


class TestConstruction:
    def test_kinds_and_support(self):
        lo, hi = N11.support
        assert (lo, hi) == (-7.0, 9.0)
        mix = ContinuousDistribution.mixture([(0.5, 0.0, 1.0), (0.5, 3.0, 2.0)])
        assert mix.support == (-13.0, 19.0)

    def test_density_integrates_to_one(self):
        for dist in (N01, N11, N02, SKEWED):
            assert float(np.sum(dist.quad_nodes()[1])) == pytest.approx(1.0, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousDistribution.normal(0.0, -1.0)
        with pytest.raises(ValueError):
            ContinuousDistribution.mixture([(0.5, 0.0, 1.0), (0.4, 1.0, 1.0)])
        with pytest.raises(ValueError):
            ContinuousDistribution.tabulated((0.0, 1.0), (1.0, 2.0))  # mass 1.5
        with pytest.raises(ValueError):
            ContinuousDistribution.tabulated((0.0, 1.0, 0.5), (0.5, 1.0, 0.5))
        with pytest.raises(ValueError):
            ContinuousDistribution.tabulated((0.0, 1.0), (2.0, -0.0001))

    def test_unknown_kind_named(self):
        # from_dict picks the kind from the field it finds, so only the constructor can get here
        with pytest.raises(ValueError, match="distribution kind must be"):
            ContinuousDistribution("uniform")

    @pytest.mark.parametrize("text,dist", [
        ('{"normal": {"mean": 1, "sd": 1}}', N11),
        ('{"mixture": [{"w": 0.7, "mean": -0.5, "sd": 0.4}, {"w": 0.3, "mean": 1.1666666666666667, "sd": 0.6}]}',
         SKEWED),
        ('{"tabulated": {"z": [0, 1, 2], "f": [0, 1, 0]}}',
         ContinuousDistribution.tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))),
    ], ids=["normal", "mixture", "tabulated"])
    def test_from_dict_readme_schema(self, text, dist):
        again = ContinuousDistribution.from_dict(json.loads(text))
        assert again == dist
        assert hash(again) == hash(dist)
        assert repr(again) == repr(dist)
        assert "_cells" not in repr(dist)
        assert "_comps" not in repr(dist)

    @pytest.mark.parametrize("dist", [N11, SKEWED, ContinuousDistribution.tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))],
                             ids=["normal", "mixture", "tabulated"])
    def test_private_constants_leave_the_value_alone(self, dist):
        """The tables built in ``__post_init__`` take no part in ``==``, ``hash``
        or ``repr``: those read the declared fields only."""
        declared = {f.name: getattr(dist, f.name) for f in dataclasses.fields(dist) if f.init}
        assert set(declared) == {"kind", "components", "grid", "density"}
        assert repr(dist) == "ContinuousDistribution(" + ", ".join(f"{k}={v!r}" for k, v in declared.items()) + ")"
        assert hash(dist) == hash(tuple(declared.values()))
        rebuilt = dataclasses.replace(dist)
        assert rebuilt == dist and hash(rebuilt) == hash(dist)

    def test_support_is_the_widest_component_envelope(self):
        rng = np.random.default_rng(12)
        for dist in [N01, N11, N02, SKEWED] + [random_mixture(rng) for _ in range(60)]:
            assert dist.support == (min(c.mean - 8.0 * c.sd for c in dist.components),
                                    max(c.mean + 8.0 * c.sd for c in dist.components))

    @pytest.mark.parametrize("build,field", [
        (lambda: ContinuousDistribution.normal(0.0, math.nan), "sd"),
        (lambda: ContinuousDistribution.normal(math.nan, 1.0), "mean"),
        (lambda: ContinuousDistribution.normal(math.inf, 1.0), "mean"),
        (lambda: ContinuousDistribution.mixture([(math.nan, 0.0, 1.0), (0.5, 1.0, 1.0)]), "weight"),
        (lambda: ContinuousDistribution.mixture([(0.5, 0.0, 1.0), (0.5, 1.0, math.inf)]), "sd"),
        (lambda: ContinuousDistribution.tabulated((0.0, math.nan, 2.0), (0.0, 1.0, 0.0)), "z[1]"),
        (lambda: ContinuousDistribution.tabulated((0.0, 1.0, math.inf), (0.0, 1.0, 0.0)), "z[2]"),
        (lambda: ContinuousDistribution.tabulated((0.0, 1.0, 2.0), (0.0, math.nan, 0.0)), "f[1]"),
        (lambda: ContinuousDistribution.from_dict({"normal": {"mean": 0, "sd": "wide"}}), "sd"),
    ], ids=["normal-sd-nan", "normal-mean-nan", "normal-mean-inf", "mixture-weight-nan",
            "mixture-sd-inf", "tabulated-z-nan", "tabulated-z-inf", "tabulated-f-nan", "normal-sd-text"])
    def test_non_finite_input_names_field(self, build, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            build()

    def test_json_missing_field_named(self):
        with pytest.raises(ValueError, match="sd"):
            ContinuousDistribution.from_dict({"normal": {"mean": 0.0}})
        with pytest.raises(ValueError, match="tabulated"):
            ContinuousDistribution.from_dict({"tabulated": {"z": [0, 1]}})


class TestSubjectiveExpectation:
    def test_symmetric_median(self):
        assert subjective_expectation(N11, 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_standard_quantiles(self):
        assert subjective_expectation(N11, 0.8) == pytest.approx(0.158379, abs=1e-6)
        assert subjective_expectation(N02, 0.2) == pytest.approx(
            2.0 * ndtri_oracle(0.8), abs=1e-9)

    def test_degenerate_cutoffs_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                subjective_expectation(N11, p)

    def test_tail_mass_round_trip(self):
        for p_star in np.linspace(0.05, 0.95, 19):
            a = subjective_expectation(N11, float(p_star))
            assert 1.0 - N11.cdf(a) == pytest.approx(p_star, abs=1e-9)

    def test_non_increasing_in_cutoff(self):
        for dist in (N01, N11, SKEWED):
            values = [subjective_expectation(dist, p) for p in np.linspace(0.05, 0.95, 46)]
            assert all(b < a for a, b in zip(values, values[1:]))


class TestPartialExpectation:
    def test_full_mass_is_mean(self):
        assert partial_expectation(N01, N01.support[1]) == pytest.approx(0.0, abs=1e-6)

    def test_standard_normal_at_zero(self):
        assert partial_expectation(N01, 0.0) == pytest.approx(-0.3989423, abs=1e-7)

    def test_shifted_normal_at_mean(self):
        assert partial_expectation(N11, 1.0) == pytest.approx(0.1010577, abs=1e-7)

    def test_quadrature_matches_closed_form(self):
        # the Gauss-Legendre path the portfolio solvers use, against the closed form
        for dist in (N01, N11, N02, SKEWED):
            lo, hi = dist.support
            for a in np.linspace(lo, hi, 50):
                x, w = dist._split(float(a))[0]
                assert float(w @ x) == pytest.approx(partial_expectation_closed_form(dist, float(a)), abs=1e-8)

    def test_closed_form_requires_normal_family(self):
        tab = ContinuousDistribution.tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            partial_expectation_closed_form(tab, 1.0)


class TestTabulated:
    TRIANGLE = ContinuousDistribution.tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))

    def test_cdf_and_quantile(self):
        assert self.TRIANGLE.cdf(1.0) == pytest.approx(0.5, abs=1e-12)
        assert self.TRIANGLE.quantile(0.5) == pytest.approx(1.0, abs=1e-9)
        assert self.TRIANGLE.cdf(0.5) == pytest.approx(0.125, abs=1e-12)

    def test_cdf_never_passes_one_below_the_right_end(self):
        # trapezoid mass 1 + 5e-9 is accepted (within 1e-8): the prefix mass passes 1 just left of z = 2
        dist = ContinuousDistribution.tabulated((0.0, 1.0, 2.0), (0.0, 1.0 + 5e-9, 0.0))
        assert dist.cdf(math.nextafter(2.0, 0.0)) <= dist.cdf(2.0) == 1.0
        zs = [*np.linspace(1.99, 2.0, 2001).tolist(), math.nextafter(2.0, 0.0), 2.0, 3.0]
        cdf = [dist.cdf(z) for z in sorted(zs)]
        assert all(a <= b <= 1.0 for a, b in zip(cdf, cdf[1:]))

    def test_mean_and_partial(self):
        assert self.TRIANGLE.mean() == pytest.approx(1.0, abs=1e-12)
        # integral of z*z below 1 for the rising edge
        assert partial_expectation(self.TRIANGLE, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def random_tabulated(rng, mass=1.0):
    """Tabulated density on an uneven grid, with zero-density cells and flat plateaus."""
    n = int(rng.integers(3, 40))
    z = np.cumsum(np.concatenate([[rng.uniform(-5.0, 5.0)], rng.uniform(0.0, 1.0, n - 1) ** 2 + 1e-3]))
    f = rng.uniform(0.0, 2.0, n)
    for i in rng.choice(n - 1, size=int(rng.integers(0, n // 3 + 1)), replace=False):
        if rng.uniform() < 0.5:
            f[i] = f[i + 1] = 0.0  # a cell without mass: a flat stretch of the cdf
        else:
            f[i + 1] = f[i]  # a cell of constant density
    if not f.any():
        f[n // 2] = 1.0
    z, f = [float(v) for v in z], [float(v) for v in f]
    scale = mass / math.fsum((f[i] + f[i + 1]) * (z[i + 1] - z[i]) * 0.5 for i in range(n - 1))
    return ContinuousDistribution.tabulated(z, [v * scale for v in f])


@pytest.fixture(scope="module")
def tabulated_corpus():
    """221 tabulated densities: 218 seeded random ones, two with a trapezoid mass of
    1 -+ 5e-9, and the calibrated asset's (a zero-density cell and a flat top)."""
    rng = np.random.default_rng(20261017)
    corpus = [random_tabulated(rng) for _ in range(218)]
    corpus += [random_tabulated(rng, 1.0 - 5e-9), random_tabulated(rng, 1.0 + 5e-9)]
    corpus.append(ContinuousDistribution.tabulated(
        (-0.9, -0.5, 0.0, 0.1, 0.5, 0.9), (0.4, 0.0, 0.0, 0.92 / 0.65, 0.92 / 0.65, 0.0)))
    return corpus


def trapezoid_cdf(dist, x):
    """Mass below ``x`` as an fsum of trapezoids over a linear scan of the cells."""
    z, f = dist.grid, dist.density
    if x <= z[0]:
        return 0.0
    if x >= z[-1]:
        return 1.0
    i = max(k for k in range(len(z) - 1) if z[k] <= x)
    fx = f[i] + (f[i + 1] - f[i]) * (x - z[i]) / (z[i + 1] - z[i])
    cells = [(f[k] + f[k + 1]) * (z[k + 1] - z[k]) * 0.5 for k in range(i)]
    return math.fsum(cells + [(f[i] + fx) * (x - z[i]) * 0.5])


def simpson_moment(dist, a):
    """Lower partial moment by the 3-node Simpson rule on each cell, all cells in one
    array pass (exact, as ``z f`` is quadratic on a cell)."""
    z = dist.grid
    edges = np.array([v for v in z if v < a] + ([min(a, z[-1])] if a > z[0] else []))
    lo, hi = edges[:-1], edges[1:]
    h = (hi - lo) / 2.0
    x = np.stack((lo, lo + h, hi))
    y = x * dist.pdf(x)
    return math.fsum(h / 3.0 * (y[0] + y[2] + 4.0 * y[1]))


def sample_points(rng, dist, k=12):
    z = dist.grid
    return list(z) + [float(v) for v in rng.uniform(z[0] - 0.5, z[-1] + 0.5, k)]


def erf_bisection_quantile(dist, p):
    """Quantile by bisection on a math.erf mixture cdf, to the last few bits."""
    comps = dist.components

    def cdf(x):
        return math.fsum(c.weight * 0.5 * (1.0 + math.erf((x - c.mean) / (c.sd * math.sqrt(2.0))))
                         for c in comps)

    lo = min(c.mean - 8.0 * c.sd for c in comps)
    hi = max(c.mean + 8.0 * c.sd for c in comps)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_mixture(rng):
    k = int(rng.integers(1, 4))
    w = [float(v) for v in rng.dirichlet(np.ones(k))]
    w[-1] = 1.0 - math.fsum(w[:-1])
    return ContinuousDistribution.mixture(
        [(w[i], float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.2, 2.0))) for i in range(k)])


@pytest.fixture
def cdf_calls(monkeypatch):
    """Counts ContinuousDistribution.cdf calls: one per Newton step of a normal or mixture quantile."""
    count = [0]
    original = ContinuousDistribution.cdf

    def counting(self, z):
        count[0] += 1
        return original(self, z)

    monkeypatch.setattr(ContinuousDistribution, "cdf", counting)
    return count


SWEEP_PROBS = [0.01] + [0.05 + 0.01 * i for i in range(91)] + [0.99]


class TestExactKernel:
    def test_tabulated_cdf_matches_trapezoid_fsum(self, tabulated_corpus):
        rng = np.random.default_rng(1)
        for dist in tabulated_corpus:
            for x in sample_points(rng, dist):
                assert dist.cdf(x) == pytest.approx(trapezoid_cdf(dist, x), abs=1e-14)

    def test_tabulated_moments_match_simpson(self, tabulated_corpus):
        rng = np.random.default_rng(2)
        for dist in tabulated_corpus:
            assert dist.mean() == pytest.approx(simpson_moment(dist, dist.grid[-1]), abs=1e-12)
            for a in sample_points(rng, dist):
                assert partial_expectation(dist, a) == pytest.approx(simpson_moment(dist, a), abs=1e-12)

    def test_tabulated_quantile_inverts_cdf(self, tabulated_corpus):
        rng = np.random.default_rng(3)
        for dist in tabulated_corpus:
            total = trapezoid_cdf(dist, math.nextafter(dist.grid[-1], -math.inf))
            for p in rng.uniform(0.0, min(total, 1.0), 25):
                if 0.0 < p < 1.0:
                    q = dist.quantile(float(p))
                    # on a tall spike one float step of q moves the cdf by more than 1e-14
                    assert dist.cdf(q) == pytest.approx(float(p), abs=1e-14 + dist.pdf(q) * math.ulp(q))

    def test_tabulated_quantile_smallest_point_on_flat_stretch(self, tabulated_corpus):
        checked = 0
        for dist in tabulated_corpus:
            z, f = dist.grid, dist.density
            empty = [f[i] == 0.0 and f[i + 1] == 0.0 for i in range(len(z) - 1)]
            for j in range(1, len(z) - 1):
                if not empty[j] or empty[j - 1]:
                    continue
                k = j
                while k < len(empty) and empty[k]:
                    k += 1
                level = dist.cdf(z[j])
                if not 0.0 < level < 1.0 - 1e-8:
                    continue
                assert dist.quantile(level) == pytest.approx(z[j], abs=1e-12)
                assert dist.quantile(level + 1e-9) > z[k]
                checked += 1
        assert checked > 50

    def test_tabulated_quantile_above_total_mass_is_right_end(self, tabulated_corpus):
        short = tabulated_corpus[-3]
        total = trapezoid_cdf(short, math.nextafter(short.grid[-1], -math.inf))
        assert total == pytest.approx(1.0 - 5e-9, abs=1e-14)
        assert short.quantile(1.0 - 1e-9) == short.grid[-1]
        assert short.cdf(short.grid[-1]) == 1.0
        assert short.cdf(short.grid[0]) == 0.0

    @pytest.mark.parametrize("dist", [N01, N11, N02, SKEWED], ids=["N01", "N11", "N02", "skewed"])
    def test_normal_quantile_newton_steps(self, dist, cdf_calls):
        for p in SWEEP_PROBS:
            cdf_calls[0] = 0
            q = dist.quantile(p)
            assert cdf_calls[0] <= 8
            assert q == pytest.approx(erf_bisection_quantile(dist, p), abs=1e-12)

    def test_mixture_quantile_corpus(self, cdf_calls):
        rng = np.random.default_rng(4)
        worst = 0
        for _ in range(60):
            dist = random_mixture(rng)
            for p in SWEEP_PROBS[::4]:
                cdf_calls[0] = 0
                q = dist.quantile(p)
                worst = max(worst, cdf_calls[0])
                assert q == pytest.approx(erf_bisection_quantile(dist, p), abs=1e-12)
        assert worst <= 12


class TestFloatDensity:
    """``pdf`` at a Python float skips numpy, and agrees with the array density."""

    @staticmethod
    def check(dist):
        lo, hi = dist.support
        spread = max(c.sd for c in dist.components)
        # the support, then out to 45 sd past the mean, where every component underflows to 0
        zs = np.concatenate([np.linspace(lo, hi, 161), dist.mean() + spread * np.linspace(-45.0, 45.0, 91)])
        underflows = 0
        for z in zs.tolist():
            got, want = dist.pdf(z), dist.pdf(np.array([z]))[0]
            assert type(got) is float
            # numpy's exp is up to 2 ulp from math.exp: at most 2 ulp per component
            assert abs(got - want) <= 2 * len(dist.components) * math.ulp(max(got, want)), z
            underflows += got == 0.0
        assert underflows > 0

    def test_normal_corpus(self):
        rng = np.random.default_rng(7)
        for dist in [N01, N11, N02] + [ContinuousDistribution.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
                                       for _ in range(40)]:
            self.check(dist)

    def test_mixture_corpus(self):
        rng = np.random.default_rng(8)
        for dist in [SKEWED] + [random_mixture(rng) for _ in range(60)]:
            self.check(dist)


class TestNormalQuantile:
    """AS241 start, erfc cdf: a normal quantile is one Newton step, accurate in the lower tail."""

    @staticmethod
    def probabilities():
        rng = np.random.default_rng(13)
        edge = 0.5 - 0.425  # the central branch holds |p - 1/2| <= 0.425
        tail = math.exp(-25.0)  # the middle tail branch holds sqrt(-log p) <= 5
        edges = [edge, 1.0 - edge, tail, 1.0 - tail, 1e-300, 5e-324, 0.5, 1.0 - 2.0 ** -53]
        edges += [math.nextafter(v, d) for v in (edge, 1.0 - edge, tail, 1.0 - tail) for d in (0.0, 1.0)]
        return edges + rng.uniform(0.0, 1.0, 4000).tolist() + (10.0 ** -rng.uniform(0.0, 300.0, 4000)).tolist()

    def test_start_is_statistics_inv_cdf(self):
        standard = statistics.NormalDist()
        for p in self.probabilities():
            want = standard.inv_cdf(p)
            assert abs(_norm_quantile(p) - want) <= math.ulp(want), p

    @pytest.mark.parametrize("mean,sd", [(0.3, 1.2), (0.0, 1.0), (-2.0, 0.05), (1.5, 3.0)])
    def test_lower_tail_against_statistics(self, mean, sd, cdf_calls):
        dist, ref = ContinuousDistribution.normal(mean, sd), statistics.NormalDist(mean, sd)
        for p in (1e-12, 1e-9, 1e-6, 1e-3):
            cdf_calls[0] = 0
            got, want = dist.quantile(p), ref.inv_cdf(p)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            assert cdf_calls[0] == 1

    def test_far_lower_tail_digits(self):
        # 0.5 * (1 + erf) cancelled here: 30 cdf calls and -8.1413796476
        assert f"{ContinuousDistribution.normal(0.3, 1.2).quantile(1e-12):.10f}" == "-8.1413805904"

    def test_one_cdf_call_per_quantile(self, cdf_calls):
        rng = np.random.default_rng(14)
        probs = [1e-12, 1e-9, 1e-6, 1e-3] + SWEEP_PROBS + [1.0 - 1e-3, 1.0 - 1e-6]
        for _ in range(100):
            dist = ContinuousDistribution.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.01, 5.0))
            for p in probs:
                cdf_calls[0] = 0
                dist.quantile(p)
                assert cdf_calls[0] == 1, (dist, p)


class TestNodeMass:
    """Quadrature nodes carry the mass of every mixture component, however narrow."""

    @staticmethod
    def mass(dist, lo, hi):
        """Mass of [lo, hi] from scipy's ndtr, independent of ``cdf``."""
        return math.fsum(c.weight * (special.ndtr((hi - c.mean) / c.sd) - special.ndtr((lo - c.mean) / c.sd))
                         for c in dist.components)

    def test_mixture_corpus_with_sd_ratios_to_1e5(self):
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(150):
            k = int(rng.integers(2, 4))
            w = [float(v) for v in rng.dirichlet(np.ones(k))]
            w[-1] = 1.0 - math.fsum(w[:-1])
            wide = float(rng.uniform(0.01, 3.0))
            sds = [wide] + [wide / 10.0 ** float(rng.uniform(0.0, 5.0)) for _ in range(k - 1)]
            dist = ContinuousDistribution.mixture([(w[i], float(rng.uniform(-5.0, 5.0)), sds[i]) for i in range(k)])
            lo, hi = dist.support
            worst = max(worst, abs(math.fsum(dist.quad_nodes()[1]) - self.mass(dist, lo, hi)))
            for cut in rng.uniform(lo, hi, 6).tolist() + [c.mean for c in dist.components]:
                for (a, b), (_, weights) in zip(((lo, cut), (cut, hi)), dist._split(cut)):
                    worst = max(worst, abs(math.fsum(weights) - self.mass(dist, a, b)))
        assert worst <= _NODE_MASS_TOL

    def test_unresolvable_component_raises(self):
        # at mean 0.06, float nodes sit up to 3e-7 sd from their panel positions: the mass misses by ~4e-9
        dist = ContinuousDistribution.mixture([(0.5, 0.02, 0.2), (0.5, 0.06, 2e-11)])
        with pytest.raises(ArithmeticError, match="shortfall"):
            dist.quad_nodes()


PANEL_DISTS = (N01, N02, ContinuousDistribution.normal(0.05, 0.2), SKEWED,
               ContinuousDistribution.mixture([(0.5, 0.02, 0.2), (0.5, 0.06, 0.0002)]),
               ContinuousDistribution.tabulated((-0.9, -0.5, 0.0, 0.1, 0.5, 0.9),
                                                (0.4, 0.0, 0.0, 0.92 / 0.65, 0.92 / 0.65, 0.0)))
PANEL_IDS = ["N01", "N02", "readme", "skewed", "narrow-mixture", "tabulated"]


class TestPanelSet:
    """One Gauss-Legendre panel set per distribution: ``quad_nodes`` returns it whole, and
    ``_split`` cuts it in two at one index, with fresh nodes on the one panel that holds
    the cut."""

    @staticmethod
    def whole_edges(dist):
        """Cells of a tabulated density; else equal panels over each component's eight-sd envelope, merged."""
        if dist.kind == "tabulated":
            return np.array(dist.grid)
        return np.unique(np.concatenate([np.linspace(c.mean - 8.0 * c.sd, c.mean + 8.0 * c.sd, _GL_PANELS + 1)
                                         for c in dist.components]))

    @staticmethod
    def panel(dist, a, b):
        x, w = _panel_nodes(np.array([a]), np.array([b]))
        return x, w * dist.pdf(x)

    @staticmethod
    def cuts(dist, edges, rng):
        """Quantiles, edges of the panel set, points inside one panel, the ends of the
        support and random points."""
        lo, hi = dist.support
        inner = edges[(edges > lo) & (edges < hi)]
        k = int(rng.integers(1, inner.size - 1))
        mid = 0.5 * (edges[k] + edges[k + 1])
        return ([dist.quantile(p) for p in (0.1, 0.3, 0.6, 0.9)]
                + [float(edges[edges.size // 2]), float(edges[k]), mid, 0.5 * (mid + edges[k + 1]), lo, hi]
                + rng.uniform(lo, hi, 6).tolist())

    @pytest.mark.parametrize("dist", PANEL_DISTS, ids=PANEL_IDS)
    def test_split_halves_are_whole_panels_plus_the_cut_panel(self, dist, monkeypatch):
        import bbl.distributions as distributions

        edges = self.whole_edges(dist)
        x_all, w_all = _panel_nodes(edges[:-1], edges[1:])
        w_all = w_all * dist.pdf(x_all)
        x, w = dist.quad_nodes()
        assert np.array_equal(x, x_all) and np.array_equal(w, w_all)
        n = x_all.size // (edges.size - 1)
        panels = []
        real = distributions._panel_nodes
        monkeypatch.setattr(distributions, "_panel_nodes", lambda a, b: panels.append(a.size) or real(a, b))
        for cut in self.cuts(dist, edges, np.random.default_rng(17)):
            # whole panels up to the last edge at or below the cut, the cut panel's two
            # pieces when the cut is inside it, and whole panels after it
            i = np.flatnonzero(edges <= cut)[-1]
            below, above = [(x_all[:n * i], w_all[:n * i])], [(x_all[n * (i + 1):], w_all[n * (i + 1):])]
            if edges[i] < cut:
                below.append(self.panel(dist, edges[i], cut))
                above.insert(0, self.panel(dist, cut, edges[i + 1]))
            else:
                above.insert(0, (x_all[n * i:n * (i + 1)], w_all[n * i:n * (i + 1)]))
            panels.clear()
            got = dist._split(cut)
            assert sum(panels) <= 2 and len(panels) <= 1
            for (gx, gw), pieces in zip(got, (below, above)):
                assert np.array_equal(gx, np.concatenate([p[0] for p in pieces]))
                assert np.array_equal(gw, np.concatenate([p[1] for p in pieces]))
            assert got[0][0].size + got[1][0].size <= x_all.size + n

    @pytest.mark.parametrize("dist", PANEL_DISTS, ids=PANEL_IDS)
    def test_split_halves_integrate_like_the_whole(self, dist):
        rng = np.random.default_rng(18)
        x, w = dist.quad_nodes()
        for cut in self.cuts(dist, self.whole_edges(dist), rng):
            (x1, w1), (x2, w2) = dist._split(cut)
            for g in (np.ones_like, lambda z: z, lambda z: z * z):
                assert abs(w1 @ g(x1) + w2 @ g(x2) - w @ g(x)) <= 1e-14

    def test_split_checks_each_half_mass(self, monkeypatch):
        dist = ContinuousDistribution.normal(0.05, 0.2)
        cdf = ContinuousDistribution.cdf
        monkeypatch.setattr(ContinuousDistribution, "cdf", lambda d, z: cdf(d, z) + (1e-9 if z == 0.1 else 0.0))
        with pytest.raises(ArithmeticError, match="shortfall"):
            dist._split(0.1)

    @pytest.mark.parametrize("dist", PANEL_DISTS, ids=PANEL_IDS)
    def test_whole_set_is_read_only(self, dist):
        x, w = dist.quad_nodes()
        for a in (x, w, dist._panel_set().edges):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("dist", PANEL_DISTS, ids=PANEL_IDS)
    def test_panel_set_leaves_the_value_alone(self, dist):
        fresh = dataclasses.replace(dist)
        dist.quad_nodes()
        assert fresh._panels is None and dist._panels is not None
        assert dist == fresh and hash(dist) == hash(fresh) and repr(dist) == repr(fresh)

    def test_whole_set_is_built_once(self, monkeypatch):
        import bbl.distributions as distributions

        panels = []
        real = distributions._panel_nodes
        monkeypatch.setattr(distributions, "_panel_nodes", lambda lo, hi: panels.append(lo.size) or real(lo, hi))
        for spec in ({"normal": {"mean": 0.05, "sd": 0.2}},
                     {"mixture": [{"w": 0.5, "mean": 0.02, "sd": 0.2}, {"w": 0.5, "mean": 0.06, "sd": 0.0002}]},
                     {"tabulated": {"z": [0.0, 1.0, 2.0], "f": [0.0, 1.0, 0.0]}}):
            dist = ContinuousDistribution.from_dict(spec)
            panels.clear()
            whole = dist.quad_nodes()
            assert len(panels) == 1
            assert np.array_equal(dist.quad_nodes()[0], whole[0]) and len(panels) == 1
            for cut in (dist.quantile(0.4), dist.quantile(0.7)):
                panels.clear()
                dist._split(cut)
                assert sum(panels) <= 2 and len(panels) <= 1


class TestValues:
    def test_naive_symmetric_median(self):
        assert naive_value(N01, prefs_for(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_naive_spread_ranking(self):
        p = prefs_for(0.3)
        assert naive_value(N02, p) == pytest.approx(2.0 * ndtri_oracle(0.7), abs=1e-8)
        assert naive_value(N01, p) == pytest.approx(ndtri_oracle(0.7), abs=1e-8)
        assert naive_value(N02, p) > naive_value(N01, p)
        p = prefs_for(0.7)
        assert naive_value(N02, p) < naive_value(N01, p)

    def test_sophisticated_collapses_without_loss_aversion(self):
        lam = 1.0 + 1e-9
        p = Preferences(eta=eta_for_cutoff(0.5, lam), lambda0=lam)
        assert sophisticated_value(N11, p) == pytest.approx(p.eta * 1.0, abs=1e-6)

    def test_sophisticated_value_median_cutoff(self):
        # frozen from the closed form: eta * (1 + 1.25 * (Phi(0) - phi(0)))
        value = sophisticated_value(N11, prefs_for(0.5))
        expected = eta_for_cutoff(0.5, 2.25) * (1.0 + 1.25 * (0.5 - 1.0 / math.sqrt(2 * math.pi)))
        assert expected == pytest.approx(0.6931213228, abs=1e-10)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_equal_means_ranked_by_loss_moment(self):
        p = prefs_for(0.45)
        a_skew = subjective_expectation(SKEWED, 0.45)
        a_norm = subjective_expectation(N01, 0.45)
        moment_gap = partial_expectation_closed_form(SKEWED, a_skew) - \
            partial_expectation_closed_form(N01, a_norm)
        result = compare(SKEWED, N01, p, "sophisticated")
        assert (result.verdict == "prefer_a") == (moment_gap > 0)


class TestCompare:
    def test_equal_distributions_indifferent(self):
        assert compare(N01, N01, prefs_for(0.4), "naive").verdict == "indifferent"
        assert compare(N11, N11, prefs_for(0.6), "sophisticated").verdict == "indifferent"

    @pytest.mark.parametrize("p_star,expected", [
        (0.3, "prefer_a"),
        (0.7, "prefer_b"),
        (0.5, "indifferent"),
    ])
    def test_single_crossing_family(self, p_star, expected):
        assert compare(N02, N01, prefs_for(p_star), "naive").verdict == expected

    def test_naive_consistent_with_subjective_expectations(self):
        # ranking statistic and verdict cannot disagree
        for p_star in (0.2, 0.45, 0.8):
            p = prefs_for(p_star)
            a = naive_value(SKEWED, p)
            b = naive_value(N01, p)
            verdict = compare(SKEWED, N01, p, "naive").verdict
            if abs(a - b) > 1e-10:
                assert verdict == ("prefer_a" if a > b else "prefer_b")

    def test_tail_mass_criterion_matches(self):
        # equal-mean pair: subjective-expectation order equals the order of
        # upper-tail masses above either agent's subjective expectation
        p = prefs_for(0.4)
        a = subjective_expectation(SKEWED, 0.4)
        tail_gap = (1.0 - SKEWED.cdf(a)) - (1.0 - N01.cdf(a))
        verdict = compare(SKEWED, N01, p, "naive").verdict
        if abs(tail_gap) > 1e-10:
            assert verdict == ("prefer_a" if tail_gap > 0 else "prefer_b")

    def test_sophisticated_verdict_vs_simpson_oracle(self):
        p = prefs_for(0.55)
        values = {}
        for name, dist in (("a", SKEWED), ("b", N01)):
            cut = subjective_expectation(dist, 0.55)
            lo, hi = dist.support
            mean = simpson_integral(lambda z: z * dist.pdf(z), lo, hi, 4001)
            loss = simpson_integral(lambda z: z * dist.pdf(z), lo, cut, 4001)
            values[name] = p.eta * (mean + (p.lambda0 - 1.0) * loss)
        result = compare(SKEWED, N01, p, "sophisticated")
        assert result.value_a == pytest.approx(values["a"], abs=1e-7)
        assert result.value_b == pytest.approx(values["b"], abs=1e-7)

    def test_agent_kind_validated(self):
        with pytest.raises(ValueError):
            compare(N01, N11, prefs_for(0.5), "rational")

    def test_general_gain_loss_rejected(self):
        from bbl import GainLossSpec

        prefs = Preferences(eta=0.6, lambda0=2.25, gain_loss=GainLossSpec.general(1.0, 2.0))
        with pytest.raises(ValueError):
            naive_value(N01, prefs)
        with pytest.raises(ValueError):
            sophisticated_value(N01, prefs)
