import json

import pytest

import inputs


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(name):
    make = inputs.GENERATORS[name]
    first = json.dumps(make(11))
    assert json.dumps(make(11)) == first
    assert json.dumps(make(12)) != first


def test_tabulated_density_has_unit_mass():
    spec = inputs.tabulated(__import__("random").Random(3))["tabulated"]
    z, f = spec["z"], spec["f"]
    assert len(z) == inputs.TABULATED_POINTS
    mass = sum((f[i] + f[i + 1]) * (z[i + 1] - z[i]) / 2 for i in range(len(z) - 1))
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_portfolio_etas_cover_the_grid():
    prefs = inputs.portfolio_shares(5)["prefs"]
    assert sorted(p["eta"] for p in prefs["normal"]) == pytest.approx([0.5 + 0.05 * k for k in range(8)])
    assert [int((p["eta"] - 0.5) / 0.05) for p in prefs["calibrated"]] == [0, 4, 2, 6, 1, 5, 3, 7]
