import io
import math

import numpy as np
import pytest
from scipy import special

from bbl import (
    ContinuousDistribution,
    EquilibriumPoint,
    DomainError,
    Preferences,
    default_grid,
    eta_for_cutoff,
    naive_price,
    partial_expectation,
    simpson_integral,
    sophisticated_price,
    subjective_expectation,
    sweep,
    sweep_thresholds,
    write_sweep_csv,
)
from bbl.equilibrium import CSV_COLUMNS

from conftest import normal_partial

N11 = ContinuousDistribution.normal(1.0, 1.0)
LAM = 2.25


def threshold_corpus(seed, count):
    """``count`` each of normal, two-component mixture and tabulated densities."""
    rng = np.random.default_rng(seed)
    dists = []
    for _ in range(count):
        dists.append(ContinuousDistribution.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 3.0)))
        w = rng.uniform(0.1, 0.9)
        dists.append(ContinuousDistribution.mixture([
            (w, rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.0)),
            (1.0 - w, rng.uniform(-3.0, 1.0), rng.uniform(0.1, 2.0)),
        ]))
        z = np.linspace(rng.uniform(-6.0, -1.0), rng.uniform(1.0, 6.0), int(rng.choice((11, 51, 601))))
        f = np.exp(-0.5 * ((z - rng.uniform(-1.5, 1.5)) / rng.uniform(0.3, 2.0)) ** 2) + 0.01
        f /= np.sum((f[1:] + f[:-1]) * np.diff(z)) / 2.0
        dists.append(ContinuousDistribution.tabulated(z.tolist(), f.tolist()))
    return dists


def sweep_corpus(seed, count):
    """``count`` each of normal, two-component mixture and 601-point tabulated densities,
    each with its own lambda."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.uniform(0.1, 0.9)
        z = np.linspace(rng.uniform(-6.0, -3.0), rng.uniform(3.0, 6.0), 601)
        f = np.exp(-0.5 * ((z - rng.uniform(-1.5, 1.5)) / rng.uniform(0.3, 2.0)) ** 2) + 0.01
        f /= np.sum((f[1:] + f[:-1]) * np.diff(z)) / 2.0
        for dist in (ContinuousDistribution.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 3.0)),
                     ContinuousDistribution.mixture([(w, rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.0)),
                                                     (1.0 - w, rng.uniform(-3.0, 1.0), rng.uniform(0.1, 2.0))]),
                     ContinuousDistribution.tabulated(z.tolist(), f.tolist())):
            out.append((dist, float(rng.uniform(1.05, 4.0))))
    return out


def prefs_for(p_star):
    return Preferences(eta=eta_for_cutoff(p_star, LAM), lambda0=LAM)


class TestPrices:
    def test_naive_median(self):
        assert naive_price(N11, prefs_for(0.5)) == pytest.approx(1.0 / 1.625, abs=1e-9)

    def test_naive_zero_at_zero_quantile(self):
        p_star = 1.0 - N11.cdf(0.0)  # subjective expectation sits exactly at zero
        assert naive_price(N11, prefs_for(p_star)) == pytest.approx(0.0, abs=1e-9)

    def test_naive_low_cutoff(self):
        price = naive_price(N11, prefs_for(0.1))
        eta = eta_for_cutoff(0.1, LAM)
        a = 1.0 + float(special.ndtri(0.9))
        assert eta == pytest.approx(0.470588, abs=1e-6)
        assert a == pytest.approx(2.28155, abs=1e-5)
        assert price == pytest.approx(eta * a, abs=1e-9)
        assert price == pytest.approx(1.07367, abs=1e-5)

    def test_sophisticated_median(self):
        assert sophisticated_price(N11, prefs_for(0.5)) == pytest.approx(0.6931213228, abs=1e-9)

    def test_sophisticated_collapses_to_rational(self):
        lam = 1.0 + 1e-9
        prefs = Preferences(eta=eta_for_cutoff(0.5, lam), lambda0=lam)
        assert sophisticated_price(N11, prefs) == pytest.approx(prefs.eta * 1.0, abs=1e-6)

    def test_sophisticated_high_cutoff(self):
        # frozen via the closed-form partial expectation at the 5% quantile
        prefs = prefs_for(0.95)
        a = subjective_expectation(N11, 0.95)
        assert a == pytest.approx(-0.64485, abs=1e-5)
        expected = prefs.eta * (1.0 + 1.25 * normal_partial(1.0, 1.0, a))
        assert sophisticated_price(N11, prefs) == pytest.approx(expected, abs=1e-9)
        assert sophisticated_price(N11, prefs) == pytest.approx(0.878664, abs=1e-5)

    def test_degenerate_cutoff_propagates(self):
        with pytest.raises(DomainError):
            naive_price(N11, Preferences(eta=1.0, lambda0=LAM))


@pytest.fixture
def quantiles(monkeypatch):
    """The columns of probabilities passed to ``ContinuousDistribution._quantiles``, in call order."""
    calls = []
    kernel = ContinuousDistribution._quantiles
    monkeypatch.setattr(ContinuousDistribution, "_quantiles", lambda dist, ps: calls.append(ps) or kernel(dist, ps))
    return calls


@pytest.fixture(scope="module")
def figure_sweep():
    return sweep(N11, LAM, default_grid())


class TestSweep:
    def test_grid_shape(self, figure_sweep):
        assert len(figure_sweep) == 91
        assert figure_sweep[0].p_star == pytest.approx(0.05)
        assert figure_sweep[-1].p_star == pytest.approx(0.95)

    def test_point_invariants(self, figure_sweep):
        from bbl import cutoff_probability
        for pt in figure_sweep:
            assert cutoff_probability(Preferences(eta=pt.eta, lambda0=LAM)) == \
                pytest.approx(pt.p_star, abs=1e-12)
            assert pt.pi_rational == pytest.approx(pt.eta * 1.0, abs=1e-10)

    def test_naive_strictly_decreasing(self, figure_sweep):
        values = [pt.pi_naive for pt in figure_sweep]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_sophisticated_u_shape(self, figure_sweep):
        values = [pt.pi_sophisticated for pt in figure_sweep]
        diffs = np.diff(values)
        sign_changes = int(np.sum(np.sign(diffs[:-1]) != np.sign(diffs[1:])))
        assert sign_changes == 1
        minimum = figure_sweep[int(np.argmin(values))]
        assert 0.55 <= minimum.p_star <= 0.70

    def test_sophisticated_bounded_by_mean(self, figure_sweep):
        for pt in figure_sweep:
            assert pt.pi_sophisticated <= 1.0 + 1e-6

    def test_crossing_matches_loss_moment(self, figure_sweep):
        flips = 0
        for a, b in zip(figure_sweep, figure_sweep[1:]):
            da = a.pi_sophisticated - a.pi_rational
            db = b.pi_sophisticated - b.pi_rational
            if (da > 0) != (db > 0):
                flips += 1
        assert flips == 1
        for pt in figure_sweep:
            a = subjective_expectation(N11, pt.p_star)
            moment = normal_partial(1.0, 1.0, a)
            if abs(moment) > 1e-6:
                assert (pt.pi_sophisticated - pt.pi_rational > 0) == (moment > 0)

    def test_thresholds(self):
        out = sweep_thresholds(N11, LAM)
        assert out["negative_subjective_mean"] == pytest.approx(0.841345, abs=1e-5)
        assert out["loss_moment_sign_change"] == pytest.approx(0.6189, abs=2e-3)

    @pytest.mark.parametrize("dist", threshold_corpus(23, 20))
    def test_threshold_is_a_loss_moment_root_exactly_when_one_exists(self, dist):
        # the cutoff range is [1e-6, 1 - 1e-6]; its ends map to the extreme subjective expectations
        ends = [partial_expectation(dist, subjective_expectation(dist, p)) for p in (1e-6, 1.0 - 1e-6)]
        p_star = sweep_thresholds(dist, LAM)["loss_moment_sign_change"]
        if ends[0] * ends[1] >= 0:
            assert p_star is None
        else:
            assert 1e-6 <= p_star <= 1.0 - 1e-6
            assert abs(partial_expectation(dist, dist.quantile(1.0 - p_star))) <= 1e-8

    def test_indifference_at_equilibrium_price(self, figure_sweep):
        # at the quoted price the sophisticated value of holding any share is flat
        lo, hi = N11.support
        for pt in figure_sweep[::15]:
            a = subjective_expectation(N11, pt.p_star)
            mean = simpson_integral(lambda z: z * N11.pdf(z), lo, hi, 4001)
            loss = simpson_integral(lambda z: z * N11.pdf(z), lo, a, 4001)
            unit_value = pt.eta * (mean + (LAM - 1.0) * loss)
            values = [alpha * (unit_value - pt.pi_sophisticated) for alpha in np.linspace(0, 1, 11)]
            assert max(values) - min(values) <= 1e-8

    def test_naive_round_trip(self, figure_sweep):
        for pt in figure_sweep[::10]:
            assert pt.pi_naive == pytest.approx(
                pt.eta * subjective_expectation(N11, pt.p_star), abs=1e-12)

    @pytest.mark.parametrize("dist, lam", sweep_corpus(15, 30), ids=lambda v: getattr(v, "kind", ""))
    def test_rows_equal_the_per_row_prices(self, dist, lam):
        """The sweep prices rows from the column kernels; each row still equals the
        public per-row functions at ``Preferences(eta_for_cutoff(p_star, lambda), lambda)``,
        bit for bit, for every kind."""
        mean = dist.mean()
        rows = sweep(dist, lam)
        assert [pt.p_star for pt in rows] == list(default_grid())
        for pt in rows:
            eta = eta_for_cutoff(pt.p_star, lam)
            prefs = Preferences(eta, lam)
            assert pt.eta == eta
            assert pt.pi_rational == eta * mean
            assert pt.pi_naive == naive_price(dist, prefs)
            assert pt.pi_sophisticated == sophisticated_price(dist, prefs)

    @pytest.mark.parametrize("lam", [1.0, 0.5, math.nan, math.inf])
    def test_lambda_validated_once_before_any_row(self, lam, quantiles):
        with pytest.raises(ValueError) as want:
            eta_for_cutoff(0.5, lam)
        for dist, _ in sweep_corpus(16, 1):
            with pytest.raises(ValueError) as got:
                sweep(dist, lam)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith("lambda must ")
        assert quantiles == []
        with pytest.raises(ValueError, match="empty"):  # the grid is checked first
            sweep(N11, lam, [])
        sweep(N11, LAM)  # the spy sees a valid sweep: one kernel call for all 91 rows
        assert [len(ps) for ps in quantiles] == [91]

    def test_row_cutoff_checked_before_any_row_is_priced(self, quantiles):
        """At lambda 1.5 the cutoff of p_star = 1 - 2**-53 rounds to 1: the sweep raises the
        DomainError of ``subjective_expectation`` at that cutoff, and prices no row first."""
        with pytest.raises(DomainError) as want:
            subjective_expectation(N11, 1.0)
        for dist, _ in sweep_corpus(17, 1):
            with pytest.raises(DomainError) as got:
                sweep(dist, 1.5, [1.0 - 2.0 ** -53, 0.5])
            assert str(got.value) == str(want.value)
        assert quantiles == []

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep(N11, LAM, [0.0, 0.5])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep(N11, LAM, [])

    @pytest.mark.parametrize("args", [
        (0.9, 0.1, 0.01),            # end < start
        (0.1, 0.5, 0.0),             # zero step
        (0.1, 0.5, -0.1),            # negative step
        (math.nan, 0.5, 0.1),
        (0.1, math.inf, 0.1),
        (0.1, 0.5, math.nan),
        (-1e308, 1e308, 1.0),        # the span overflows
        (0.05, 0.95, 5e-6),          # 180,001 rows
    ])
    def test_default_grid_rejects(self, args):
        with pytest.raises(ValueError):
            default_grid(*args)

    def test_default_grid_long_but_allowed(self):
        grid = default_grid(0.05, 0.95, 1e-5)
        assert len(grid) == 90_001
        assert grid[0] == 0.05 and grid[-1] == pytest.approx(0.95, abs=1e-12)
        assert default_grid(0.3, 0.3, 0.1) == (0.3,)


class TestPoint:
    def test_immutable_hashable_tuple(self, figure_sweep):
        pt = figure_sweep[0]
        with pytest.raises(AttributeError):
            pt.eta = 0.5
        assert hash(pt) == hash(tuple(pt))
        assert pt == tuple(pt)
        assert len({pt, EquilibriumPoint(*pt)}) == 1

    def test_to_dict_in_csv_column_order(self, figure_sweep):
        for pt in figure_sweep[::15]:
            row = pt.to_dict()
            assert tuple(row) == CSV_COLUMNS
            assert list(row.values()) == list(pt)
            assert all(type(v) is float for v in row.values())


class TestCsv:
    def test_format(self, figure_sweep):
        buf = io.StringIO()
        write_sweep_csv(figure_sweep, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "p_star,eta,pi_rational,pi_naive,pi_sophisticated"
        assert len(lines) == 92
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[0] == "0.05"
        # ten significant digits
        assert first[1] == f"{figure_sweep[0].eta:.10g}"
