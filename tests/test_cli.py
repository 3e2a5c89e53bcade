import hashlib
import json
import subprocess
import sys

import pytest

from bbl.cli import run

LOTTERY = '{"payoffs":[0,1],"probs":[0.1,0.9]}'
PREFS = '{"eta":0.8,"lambda":2.25}'
NORMAL = '{"normal":{"mean":1,"sd":1}}'
ASSET = '{"r_f":1,"excess":{"normal":{"mean":0.05,"sd":0.2}}}'


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestPstar:
    def test_forward(self, cli):
        code, out, _ = cli("pstar", "--eta", "0.8", "--lambda", "2.25")
        assert code == 0
        assert out == "0.8\n"

    def test_inverse(self, cli):
        code, out, _ = cli("pstar", "--p-star", "0.5", "--lambda", "2.25")
        assert code == 0
        assert out == "0.6153846154\n"

    def test_missing_mode(self, cli):
        code, _, err = cli("pstar", "--lambda", "2.25")
        assert code == 1
        assert "eta" in err

    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "bbl.cli", "pstar", "--eta", "0.8", "--lambda", "2.25"],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout == "0.8\n"


def test_import_leaves_out_scipy_and_statistics():
    """Start-up pays for numpy alone: no closed-form-quantile shortcut through scipy or statistics."""
    code = "import sys, bbl.cli; print([m for m in ('scipy', 'statistics') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


class TestBeliefs:
    def test_two_state_example(self, cli):
        code, out, _ = cli("beliefs", "--lottery", LOTTERY, "--prefs", PREFS)
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == [0.0, 1.0]
        assert payload["total_utility"] == pytest.approx(0.82, abs=1e-10)
        assert payload["expectation_interval"] == [1.0, 1.0]

    def test_matches_library(self, cli):
        from bbl import DiscreteLottery, Preferences, solve_optimal_beliefs

        code, out, _ = cli("beliefs", "--lottery", LOTTERY, "--prefs", PREFS)
        solution = solve_optimal_beliefs(
            DiscreteLottery.from_dict(json.loads(LOTTERY)),
            Preferences.from_dict(json.loads(PREFS)))
        payload = json.loads(out)
        assert payload["subjective_expectation"] == pytest.approx(
            solution.subjective_expectation, abs=1e-10)

    def test_file_input(self, cli, tmp_path):
        path = tmp_path / "lottery.json"
        path.write_text(LOTTERY, encoding="utf-8")
        code, out, _ = cli("beliefs", "--lottery", str(path), "--prefs", PREFS)
        assert code == 0
        assert json.loads(out)["q"] == [0.0, 1.0]


class TestTiming:
    def test_verdict_payload(self, cli):
        code, out, _ = cli("timing", "--lottery", LOTTERY, "--prefs", PREFS)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"u_early": 1.0, "u_wait": 0.82, "verdict": "early"}


class TestCompare:
    def test_naive_wider_preferred(self, cli):
        prefs = json.dumps({"eta": 1.0 / (2.25 - 0.3 * 1.25), "lambda": 2.25})
        code, out, _ = cli("compare", "--dist-a", '{"normal":{"mean":0,"sd":2}}',
                           "--dist-b", '{"normal":{"mean":0,"sd":1}}',
                           "--prefs", prefs, "--agent", "naive")
        assert code == 0
        assert json.loads(out)["verdict"] == "prefer_a"


class TestPortfolio:
    def test_rational(self, cli):
        asset = json.dumps({"r_f": 1.0, "excess": {"normal": {"mean": 0.05, "sd": 0.2}}})
        code, out, _ = cli("portfolio", "--asset", asset, "--agent", "rational",
                           "--utility", '{"kind":"power","rho":2}', "--bounds", "0:1")
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert 0.0 < payload["alpha"] < 1.0

    def test_naive_requires_prefs(self, cli):
        asset = json.dumps({"r_f": 1.0, "excess": {"normal": {"mean": 0.05, "sd": 0.2}}})
        code, _, err = cli("portfolio", "--asset", asset, "--agent", "naive")
        assert code == 1
        assert "prefs" in err

    def test_non_convergence_exits_2(self, cli):
        # a pessimist whose two belief cutoffs bracket 0, q(1 - p*) <= 0 <= q(p*): no
        # fixed point but the generalised one at 0, so the agent does not trade and the
        # solver reports it as not converged
        asset = json.dumps({"r_f": 1.0, "excess": {"normal": {"mean": 0.05, "sd": 0.2}}})
        prefs = json.dumps({"eta": 1.0 / (2.25 - 0.7 * 1.25), "lambda": 2.25})
        code, out, _ = cli("portfolio", "--asset", asset, "--agent", "naive",
                           "--prefs", prefs, "--utility", '{"kind":"power","rho":2}')
        assert code == 2
        assert json.loads(out)["converged"] is False

    def test_flat_naive_objective_exits_2(self, cli):
        # linear utility on a zero-mean asset: the frozen objective is flat at 0 and both
        # belief cutoffs point into 0, so no region is searched; the output is pinned byte
        # for byte
        code, out, _ = cli("portfolio", "--asset", '{"r_f":1,"excess":{"normal":{"mean":0,"sd":0.2}}}',
                           "--agent", "naive", "--prefs", '{"eta":0.7,"lambda":2.25}',
                           "--utility", '{"kind":"linear"}', "--bounds=-1:1")
        assert code == 2
        assert out == ('{\n  "alpha": 0.0,\n  "belief_expectation": 1.0,\n  "r_ce": null,\n  "value": 1.0,\n'
                       '  "converged": false,\n  "iterations": 0\n}\n')

    @pytest.mark.parametrize("agent", ["rational", "naive", "sophisticated"])
    @pytest.mark.parametrize("utility", ['{"kind":"power","rho":2}', '{"kind":"log"}', '{"kind":"linear"}'])
    @pytest.mark.parametrize("share", ["0.3", "0"])
    def test_equal_bounds_fix_the_share(self, cli, agent, utility, share):
        asset = json.dumps({"r_f": 1.0, "excess": {"normal": {"mean": 0.05, "sd": 0.2}}})
        code, out, _ = cli("portfolio", "--asset", asset, "--agent", agent, "--prefs", PREFS,
                           "--utility", utility, f"--bounds={share}:{share}")
        assert code == 0
        assert json.loads(out)["alpha"] == float(share)

    def test_narrow_mixture_component(self, cli):
        asset = '{"r_f":1,"excess":{"mixture":[{"w":0.5,"mean":0.02,"sd":0.2},{"w":0.5,"mean":0.06,"sd":0.0002}]}}'
        code, out, _ = cli("portfolio", "--asset", asset, "--agent", "rational",
                           "--utility", '{"kind":"power","rho":2}', "--bounds=-10:10")
        assert code == 0
        assert '"alpha": 0.6329113923,' in out

    def test_unresolvable_component_exits_2(self, cli):
        asset = '{"r_f":1,"excess":{"mixture":[{"w":0.5,"mean":0.02,"sd":0.2},{"w":0.5,"mean":0.06,"sd":2e-11}]}}'
        code, out, err = cli("portfolio", "--asset", asset, "--agent", "rational",
                             "--utility", '{"kind":"power","rho":2}', "--bounds=-10:10")
        assert code == 2
        assert out == ""
        assert "shortfall" in err

    def test_equal_bounds_beyond_the_wealth_domain(self, cli):
        # the 8-sd support bottom 0.05 - 1.6 leaves wealth positive only for shares below 1/1.55
        asset = json.dumps({"r_f": 1.0, "excess": {"normal": {"mean": 0.05, "sd": 0.2}}})
        code, out, err = cli("portfolio", "--asset", asset, "--agent", "rational",
                             "--utility", '{"kind":"power","rho":2}', "--bounds=0.7:0.7")
        assert code == 1
        assert out == ""
        assert "domain" in err


class TestEquilibrium:
    def test_csv_shape(self, cli):
        code, out, _ = cli("equilibrium", "--dist", NORMAL, "--lambda", "2.25",
                           "--grid", "0.05:0.95:0.01", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p_star,eta,pi_rational,pi_naive,pi_sophisticated"
        assert len(lines) == 92
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_json_default(self, cli):
        code, out, _ = cli("equilibrium", "--dist", NORMAL, "--lambda", "2.25",
                           "--grid", "0.4:0.6:0.1")
        assert code == 0
        payload = json.loads(out)
        assert [pt["p_star"] for pt in payload] == [0.4, 0.5, 0.6]

    def test_median_row_frozen(self, cli):
        # regression pin: the P*=0.5 row of the reference sweep
        code, out, _ = cli("equilibrium", "--dist", NORMAL, "--lambda", "2.25",
                           "--grid", "0.05:0.95:0.01", "--format", "csv")
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[46] == "0.5,0.6153846154,0.6153846154,0.6153846154,0.6931213228"

    def test_byte_identical_reruns(self, cli):
        args = ("equilibrium", "--dist", NORMAL, "--lambda", "2.25",
                "--grid", "0.05:0.95:0.05", "--format", "csv")
        _, first, _ = cli(*args)
        _, second, _ = cli(*args)
        assert first == second

    def test_output_file(self, cli, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = cli("equilibrium", "--dist", NORMAL, "--lambda", "2.25",
                           "--grid", "0.4:0.6:0.1", "--format", "csv", "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8").startswith("p_star,")


    def test_readme_example_byte_identical(self, cli):
        # sha256 of the README example's stdout in both formats: row values pinned to the last printed digit
        digests = {"csv": "ee82d84a1879e8a7e8f96836a7da62729e2595a7ae07c39f14006123bb8fec8b",
                   "json": "0a6f062401475cd54000f858556e2ba7285d9b45f1fb5b6f5b42d4d13a5a4c89"}
        for fmt, digest in digests.items():
            code, out, _ = cli("equilibrium", "--dist", NORMAL, "--lambda", "2.25",
                               "--grid", "0.05:0.95:0.01", "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_beliefs_oracle(self, cli):
        code, out, _ = cli("verify", "beliefs", "--lottery", LOTTERY, "--prefs", PREFS,
                           "--step", "0.01")
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == [0.0, 1.0]
        assert payload["utility"] == pytest.approx(0.82, abs=1e-10)

    def test_random_reruns(self, cli):
        code, out, _ = cli("verify", "beliefs", "--random", "10", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["cases"] == 10
        assert payload["failures"] == 0

    def test_alpha_oracle(self, cli):
        from bbl import Asset, ConsumptionUtility, ContinuousDistribution, rational_alpha

        asset_json = json.dumps({"r_f": 1.0, "excess": {"normal": {"mean": 0.05, "sd": 0.2}}})
        code, out, _ = cli("verify", "alpha", "--asset", asset_json,
                           "--utility", '{"kind":"power","rho":2}', "--agent", "rational")
        assert code == 0
        payload = json.loads(out)
        asset = Asset(1.0, ContinuousDistribution.normal(0.05, 0.2))
        solution = rational_alpha(asset, ConsumptionUtility("power", 2.0))
        assert payload["alpha"] == pytest.approx(solution.alpha, abs=0.01)

    def test_alpha_oracle_sophisticated(self, cli):
        from bbl import Asset, ConsumptionUtility, ContinuousDistribution, Preferences, grid_search_alpha
        from bbl.portfolio import sophisticated_objective

        code, out, _ = cli("verify", "alpha", "--asset", ASSET, "--utility", '{"kind":"power","rho":2}',
                           "--agent", "sophisticated", "--prefs", PREFS, "--bounds=-1:1")
        assert code == 0
        objective = sophisticated_objective(Asset(1.0, ContinuousDistribution.normal(0.05, 0.2)),
                                            Preferences(eta=0.8, lambda0=2.25), ConsumptionUtility("power", 2.0))
        alpha, value = grid_search_alpha(objective, (-1.0, 1.0))
        assert json.loads(out) == {"alpha": float(f"{alpha:.10g}"), "value": float(f"{value:.10g}")}

    @pytest.mark.parametrize("eta", [0.5, 0.7, 0.9])
    def test_alpha_oracle_naive(self, cli, calibrated_asset, power2, eta):
        """The benchmark's rule: the scan of the frozen objective at ``naive_alpha``'s share
        finds its argmax within two grid steps of that share, and beats the objective there
        by at most 1e-7 relative."""
        from bbl import Preferences, naive_alpha
        from bbl.portfolio import naive_fixed_objective

        excess = calibrated_asset.excess
        asset_json = json.dumps({"r_f": 1.0, "excess": {"tabulated": {"z": excess.grid, "f": excess.density}}})
        code, out, err = cli("verify", "alpha", "--asset", asset_json, "--utility", '{"kind":"power","rho":2}',
                             "--agent", "naive", "--prefs", json.dumps({"eta": eta, "lambda": 2.25}),
                             "--bounds=-10:10")
        assert code == 0, err
        payload = json.loads(out)
        prefs = Preferences(eta=eta, lambda0=2.25)
        solved = naive_alpha(calibrated_asset, prefs, power2, (-10.0, 10.0))
        assert solved.converged
        value = naive_fixed_objective(calibrated_asset, prefs, power2, solved.alpha)(solved.alpha)
        assert abs(payload["alpha"] - solved.alpha) <= 2.0 * 20.0 / 2000
        assert payload["value"] <= value + 1e-7 * max(1.0, abs(value))

    def test_point_count_flag_is_gone(self, cli):
        code, out, err = cli("verify", "alpha", "--asset", ASSET, "--n", "5")
        assert code == 1
        assert out == ""
        assert "--n" in err

    @pytest.mark.parametrize("argv, flag", [
        (("beliefs",), "--lottery"),
        (("beliefs", "--lottery", LOTTERY), "--prefs"),
        (("alpha",), "--asset"),
        (("alpha", "--asset", ASSET, "--agent", "naive"), "--prefs"),
        (("alpha", "--asset", ASSET, "--agent", "sophisticated"), "--prefs"),
    ])
    def test_missing_input_named(self, cli, argv, flag):
        code, out, err = cli("verify", *argv)
        assert code == 1
        assert out == ""
        assert flag in err


class TestErrors:
    def test_malformed_json_names_argument(self, cli):
        code, _, err = cli("beliefs", "--lottery", '{"payoffs":[0,1],"probs":}',
                           "--prefs", PREFS)
        assert code == 1
        assert "--lottery" in err
        assert "invalid JSON" in err

    def test_missing_field_named(self, cli):
        code, _, err = cli("beliefs", "--lottery", '{"payoffs":[0,1]}', "--prefs", PREFS)
        assert code == 1
        assert "probs" in err

    def test_unknown_flag(self, cli):
        code, _, err = cli("pstar", "--eta", "0.8", "--lambda", "2.25", "--bogus", "1")
        assert code == 1

    def test_missing_file(self, cli):
        code, _, err = cli("beliefs", "--lottery", "does-not-exist.json", "--prefs", PREFS)
        assert code == 1
        assert "does-not-exist.json" in err

    @pytest.mark.parametrize("dist,field", [
        ('{"normal":{"mean":0,"sd":NaN}}', "sd"),
        ('{"mixture":[{"w":NaN,"mean":0,"sd":1},{"w":0.5,"mean":1,"sd":1}]}', "weight"),
        ('{"tabulated":{"z":[0,NaN,2],"f":[0,1,0]}}', "z[1]"),
        ('{"tabulated":{"z":[0,1,2],"f":[0,Infinity,0]}}', "f[1]"),
    ], ids=["normal-sd", "mixture-weight", "tabulated-z", "tabulated-f"])
    def test_non_finite_distribution_named(self, cli, dist, field):
        code, out, err = cli("compare", "--dist-a", NORMAL, "--dist-b", dist,
                             "--prefs", '{"eta":0.64,"lambda":2.25}', "--agent", "naive")
        assert code == 1
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("lam, message", [("1", "lambda must exceed 1, got 1.0"),
                                              ("nan", "lambda must be a finite number, got nan")])
    def test_bad_lambda(self, cli, lam, message):
        code, out, err = cli("equilibrium", "--dist", NORMAL, "--lambda", lam)
        assert code == 1
        assert out == ""
        assert err == f"bbl: error: {message}\n"

    @pytest.mark.parametrize("eta", ["0.3", "1"], ids=["cutoff-negative", "cutoff-one"])
    @pytest.mark.parametrize("argv", [
        ("portfolio", "--asset", ASSET, "--agent", "naive"),
        ("portfolio", "--asset", ASSET, "--agent", "sophisticated"),
        ("verify", "alpha", "--asset", ASSET, "--agent", "naive"),
        ("compare", "--dist-a", NORMAL, "--dist-b", NORMAL, "--agent", "naive"),
        ("compare", "--dist-a", NORMAL, "--dist-b", NORMAL, "--agent", "sophisticated"),
    ], ids=["portfolio-naive", "portfolio-sophisticated", "verify-alpha-naive", "compare-naive",
            "compare-sophisticated"])
    def test_cutoff_outside_unit_interval_names_eta_and_lambda(self, cli, argv, eta):
        # eta*lambda < 1 gives a negative cutoff, eta = 1 a cutoff of exactly 1
        code, out, err = cli(*argv, "--prefs", f'{{"eta":{eta},"lambda":2.25}}')
        assert code == 1
        assert out == ""
        assert f"eta={float(eta)}" in err and "lambda=2.25" in err
        assert "eta*lambda > 1 and eta < 1" in err

    @pytest.mark.parametrize("argv", [
        ("portfolio", "--asset", ASSET, "--agent", "naive"),
        ("compare", "--dist-a", NORMAL, "--dist-b", NORMAL, "--agent", "sophisticated"),
    ], ids=["portfolio", "compare"])
    def test_general_gain_loss_kind_named(self, cli, argv):
        prefs = '{"eta":0.8,"lambda":2.25,"gain_loss":{"kind":"general","beta":1,"kappa":1}}'
        code, out, err = cli(*argv, "--prefs", prefs)
        assert code == 1
        assert out == ""
        assert "gain_loss.kind" in err

    def test_bad_grid(self, cli):
        code, _, err = cli("equilibrium", "--dist", NORMAL, "--lambda", "2.25",
                           "--grid", "0.9:0.1:0.01")
        assert code == 1
        assert "--grid" in err

    @pytest.mark.parametrize("grid", ["0.1:inf:0.1", "0.1:0.5", "a:0.5:0.1"])
    def test_malformed_grid(self, cli, grid):
        code, out, err = cli("equilibrium", "--dist", NORMAL, "--lambda", "2.25", "--grid", grid)
        assert code == 1
        assert out == ""
        assert "--grid" in err

    @pytest.mark.parametrize("grid", ["-1e308:1e308:1", "0.1:0.5:0"])
    def test_grid_out_of_range(self, cli, grid):
        code, out, err = cli("equilibrium", "--dist", NORMAL, "--lambda", "2.25", f"--grid={grid}")
        assert code == 1
        assert out == ""
        assert "--grid" in err

    @pytest.mark.parametrize("step", ["nan", "inf", "2"])
    def test_bad_verify_step(self, cli, step):
        code, out, err = cli("verify", "beliefs", "--lottery", LOTTERY, "--prefs", PREFS, "--step", step)
        assert code == 1
        assert out == ""
        assert "--step" in err

    @pytest.mark.parametrize("bounds", ["nan:1", "0:1:2"])
    def test_bad_bounds(self, cli, bounds):
        asset = json.dumps({"r_f": 1.0, "excess": {"normal": {"mean": 0.05, "sd": 0.2}}})
        code, out, err = cli("portfolio", "--asset", asset, "--agent", "rational", f"--bounds={bounds}")
        assert code == 1
        assert out == ""
        assert "--bounds" in err

    def test_missing_r_f_named(self, cli):
        code, out, err = cli("portfolio", "--asset", '{"excess":{"normal":{"mean":0.05,"sd":0.2}}}',
                             "--agent", "rational")
        assert code == 1
        assert out == ""
        assert "'r_f'" in err

    @pytest.mark.parametrize("argv,field", [
        (("beliefs", "--lottery", '{"payoffs":[0,1],"probs":[NaN,1.0]}', "--prefs", PREFS), "probs[0]"),
        (("beliefs", "--lottery", '{"payoffs":[0,Infinity],"probs":[0.5,0.5]}', "--prefs", PREFS),
         "payoffs[1]"),
        (("beliefs", "--lottery", '{"payoffs":[0,1e400],"probs":[0.5,0.5]}', "--prefs", PREFS),
         "payoffs[1]"),
        (("beliefs", "--lottery", '{"payoffs":7,"probs":[1.0]}', "--prefs", PREFS), "payoffs"),
        (("beliefs", "--lottery", '{"payoffs":[1,2],"probs":[0.5,0.5],"utility":{"kind":"power","rho":NaN}}',
          "--prefs", PREFS), "utility.rho"),
        (("timing", "--lottery", LOTTERY, "--prefs", '{"eta":NaN,"lambda":2.25}'), "eta"),
        (("timing", "--lottery", LOTTERY, "--prefs", '{"eta":0.8,"lambda":2.25,"gamma":NaN}'), "gamma"),
        (("beliefs", "--lottery", LOTTERY, "--prefs",
          '{"eta":0.8,"lambda":2.25,"gain_loss":{"kind":"general","beta":NaN,"kappa":1}}'), "gain_loss.beta"),
        (("beliefs", "--lottery", LOTTERY, "--prefs",
          '{"eta":0.8,"lambda":2.25,"gain_loss":{"kind":"general","beta":1,"kappa":Infinity}}'),
         "gain_loss.kappa"),
        (("pstar", "--eta", "0.8", "--lambda", "inf"), "lambda"),
        (("pstar", "--p-star", "0.5", "--lambda", "nan"), "lambda"),
        (("equilibrium", "--dist", NORMAL, "--lambda", "inf", "--grid", "0.4:0.6:0.1"), "lambda"),
        (("portfolio", "--asset", '{"r_f":NaN,"excess":{"normal":{"mean":0.05,"sd":0.2}}}',
          "--agent", "rational"), "r_f"),
        (("compare", "--dist-a", NORMAL, "--dist-b", '{"normal":[0,1]}', "--prefs", PREFS,
          "--agent", "naive"), "distribution.normal"),
        (("compare", "--dist-a", NORMAL, "--dist-b", '{"mixture":3}', "--prefs", PREFS,
          "--agent", "naive"), "distribution.mixture"),
        (("verify", "beliefs", "--random", "3", "--seed", "-1"), "argument --seed"),
        (("verify", "beliefs", "--random", "-1"), "argument --random"),
    ], ids=["probs-nan", "payoffs-inf", "payoffs-overflow", "payoffs-not-list", "rho-nan", "eta-nan",
            "gamma-nan", "beta-nan", "kappa-inf", "pstar-lambda-inf", "pstar-inverse-lambda-nan",
            "equilibrium-lambda-inf", "asset-r_f-nan", "normal-not-object", "mixture-not-list",
            "verify-seed-negative", "verify-random-negative"])
    def test_non_finite_or_malformed_input_named(self, cli, argv, field):
        code, out, err = cli(*argv)
        assert code == 1
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("argv", [
        ("beliefs", "--lottery", '{"payoffs":[-1e308,1e308],"probs":[0.5,0.5]}', "--prefs", PREFS),
        ("pstar", "--eta", "1e-300", "--lambda", "1.000000000000001"),
        ("equilibrium", "--dist", '{"normal":{"mean":1.7e308,"sd":1}}', "--lambda", "2.25",
         "--grid", "0.4:0.6:0.1", "--format", "csv"),
    ], ids=["beliefs-json", "pstar", "equilibrium-csv"])
    def test_non_finite_result_is_numerical_failure(self, cli, argv):
        # finite inputs whose result overflows: nothing is printed
        code, out, err = cli(*argv)
        assert code == 2
        assert out == ""
        assert "non-finite" in err
