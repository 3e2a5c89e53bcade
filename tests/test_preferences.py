import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbl import GainLossSpec, Preferences, cutoff_probability, eta_for_cutoff, gain_loss, loss_multiplier


def prefs(eta, lam, **kw):
    return Preferences(eta=eta, lambda0=lam, **kw)


class TestCutoff:
    @pytest.mark.parametrize("eta,lam,expected", [
        (1.0, 2.25, 1.0),
        (0.8, 2.25, 0.8),
        (1.0 / 2.25, 2.25, 0.0),
    ])
    def test_closed_form(self, eta, lam, expected):
        assert cutoff_probability(prefs(eta, lam)) == pytest.approx(expected, abs=1e-12)

    def test_unclamped_below_reciprocal(self):
        # eta < 1/lambda: negative value signals the always-optimistic regime
        assert cutoff_probability(prefs(0.3, 2.25)) < 0

    @pytest.mark.parametrize("p_star,lam,expected", [
        (1.0, 2.25, 1.0),
        (0.0, 2.25, 1.0 / 2.25),
        (0.5, 2.25, 1.0 / (2.25 - 0.625)),
    ])
    def test_inverse(self, p_star, lam, expected):
        assert eta_for_cutoff(p_star, lam) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(1.05, 6.0))
    def test_round_trip(self, p_star, lam):
        eta = eta_for_cutoff(p_star, lam)
        assert cutoff_probability(prefs(eta, lam)) == pytest.approx(p_star, abs=1e-12)

    def test_monotone_in_eta_and_lambda(self):
        etas = [0.5 + 0.05 * i for i in range(11)]
        for lam in (1.5, 2.25, 3.5):
            values = [cutoff_probability(prefs(e, lam)) for e in etas]
            inside = [(v, w) for v, w in zip(values, values[1:]) if 0 < v < 1 and 0 < w < 1]
            assert all(w > v for v, w in inside)
        lams = [1.2 + 0.2 * i for i in range(12)]
        for eta in (0.6, 0.8, 1.0):
            values = [cutoff_probability(prefs(eta, lam)) for lam in lams]
            inside = [(v, w) for v, w in zip(values, values[1:]) if 0 < v < 1 and 0 < w < 1]
            assert all(w > v for v, w in inside)

    def test_inverse_preconditions(self):
        with pytest.raises(ValueError):
            eta_for_cutoff(-0.1, 2.25)
        with pytest.raises(ValueError):
            eta_for_cutoff(0.5, 1.0)


class TestGainLoss:
    def test_linear_examples(self):
        p = prefs(0.8, 2.25)
        assert gain_loss(0.0, p) == 0.0
        assert gain_loss(-2.0, p) == pytest.approx(-4.5, abs=1e-12)
        assert gain_loss(1.5, p) == 1.5

    def test_general_zero_and_gain_slope(self):
        p = prefs(0.6, 2.25, gain_loss=GainLossSpec.general(beta=1.2, kappa=3.0))
        assert gain_loss(0.0, p) == 0.0
        assert gain_loss(2.0, p) == pytest.approx(2.4, abs=1e-12)

    @pytest.mark.parametrize("spec", [GainLossSpec.linear(), GainLossSpec.general(0.9, 2.0)])
    def test_continuity_at_zero_and_monotone(self, spec):
        p = prefs(0.7, 2.25, gain_loss=spec)
        assert abs(gain_loss(1e-12, p) - gain_loss(-1e-12, p)) < 1e-10
        xs = [-5.0 + 0.25 * i for i in range(41)]
        values = [gain_loss(x, p) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("spec", [GainLossSpec.linear(), GainLossSpec.general(0.9, 2.0)])
    def test_losses_hurt_more(self, spec):
        p = prefs(0.7, 2.25, gain_loss=spec)
        for x in (0.1, 0.5, 1.0, 3.0, 8.0):
            assert gain_loss(-x, p) <= -gain_loss(x, p)

    def test_large_kappa_approaches_scaled_linear(self):
        beta = 1.3
        general = prefs(0.4, 2.25, gain_loss=GainLossSpec.general(beta=beta, kappa=1e6))
        linear = prefs(0.4, 2.25)
        # the residual boundary-layer offset is beta*(lambda-1)/kappa, so the
        # relative tolerance applies once |x| clears that scale
        for x in (-8.0, -3.0, -0.5, -0.1, 0.7, 4.0):
            assert abs(gain_loss(x, general) - beta * gain_loss(x, linear)) <= 1e-4 * abs(x)

    def test_loss_multiplier_shape(self):
        p = prefs(0.6, 2.25, gain_loss=GainLossSpec.general(beta=1.0, kappa=2.0))
        assert loss_multiplier(0.0, p) == pytest.approx(1.0)
        assert loss_multiplier(1e9, p) == pytest.approx(2.25)
        xs = [0.1 * i for i in range(50)]
        values = [loss_multiplier(x, p) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v > 1 for v in values[1:])

    @pytest.mark.parametrize("kind", ["linear", "general"])
    def test_loss_multiplier_rejects_nan_and_negative(self, kind):
        spec = GainLossSpec.general(beta=1.0, kappa=2.0) if kind == "general" else GainLossSpec()
        p = prefs(0.6, 2.25, gain_loss=spec)
        for x in (math.nan, -math.inf, -1e-300):
            with pytest.raises(ValueError, match="loss size"):
                loss_multiplier(x, p)
        assert loss_multiplier(math.inf, p) == pytest.approx(2.25)


class TestValidation:
    @pytest.mark.parametrize("eta,lam,gamma", [
        (0.0, 2.25, 1.0), (1.2, 2.25, 1.0), (0.8, 1.0, 1.0), (0.8, 2.25, -0.1), (0.8, 2.25, 1.5),
    ])
    def test_bad_parameters(self, eta, lam, gamma):
        with pytest.raises(ValueError):
            Preferences(eta=eta, lambda0=lam, gamma=gamma)

    def test_eta_beta_bound(self):
        with pytest.raises(ValueError):
            Preferences(eta=0.9, lambda0=2.25, gain_loss=GainLossSpec.general(beta=1.2, kappa=1.0))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            GainLossSpec("quadratic")
        with pytest.raises(ValueError):
            GainLossSpec.general(beta=-1.0, kappa=1.0)

    def test_gamma_defaults_to_one(self):
        assert Preferences(eta=0.8, lambda0=2.25).gamma == 1.0


class TestJson:
    @staticmethod
    def assert_parses_to(text, p):
        parsed = Preferences.from_dict(json.loads(text))
        assert parsed == p and hash(parsed) == hash(p) and repr(parsed) == repr(p)

    def test_from_dict_linear(self):
        self.assert_parses_to('{"eta": 0.8, "lambda": 2.25, "gamma": 0.5, "gain_loss": {"kind": "linear"}}',
                              Preferences(eta=0.8, lambda0=2.25, gamma=0.5))

    def test_from_dict_general(self):
        self.assert_parses_to('{"eta": 0.6, "lambda": 2.25, "gain_loss": {"kind": "general", "beta": 1.2, "kappa": 4}}',
                              Preferences(eta=0.6, lambda0=2.25, gain_loss=GainLossSpec.general(1.2, 4.0)))

    def test_gamma_optional(self):
        p = Preferences.from_dict({"eta": 0.8, "lambda": 2.25})
        assert p.gamma == 1.0

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="eta"):
            Preferences.from_dict({"lambda": 2.25})
        with pytest.raises(ValueError, match="kappa"):
            Preferences.from_dict({"eta": 0.5, "lambda": 2.25,
                                   "gain_loss": {"kind": "general", "beta": 1.0}})
