"""The four workloads: set-up, one cycle of operations, and the output checks.

A workload turns its seeded input dicts into bbl objects through the public
``from_dict`` constructors (``build``), runs one untimed operation per input
object (``warmup``), lists one cycle of operations (``ops``) that the closed
loop repeats, and checks each distinct result against an independent
reference (``check``).  ``ops`` is called after any tracing patch is
installed, so every callable is looked up through the (possibly patched)
package attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import inputs as gen
import refs

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Op:
    kind: str  # what is timed, e.g. "sweep-tabulated"
    key: str   # the input; every op with one key must return equal results
    call: Callable[[], object]


class Workload:
    name = ""
    trace_cycles = 1  # cycles run in each pass of a traced run

    def inputs(self, seed: int) -> dict:
        return gen.GENERATORS[self.name](seed)

    def build(self, bbl, data: dict) -> dict:
        raise NotImplementedError

    def warmup(self, bbl, state: dict) -> None:
        raise NotImplementedError

    def ops(self, bbl, state: dict) -> list[Op]:
        raise NotImplementedError

    def failure(self, result) -> str | None:
        """Why a returned result counts as a failed op (beyond raising)."""
        return None

    def nonconverged(self, result) -> bool:
        """True for a result that reports ``converged=false``: the known naive_alpha
        defect.  Such a result is counted apart from failures and still checked."""
        return False

    def check(self, bbl, state: dict, op: Op, result, results: dict) -> str | None:
        """None when ``result`` matches the reference, else what is wrong."""
        raise NotImplementedError


# ---- discrete-beliefs -------------------------------------------------------------

GRID_CHECKED = 12  # linear inputs also checked against grid_search_beliefs


class DiscreteBeliefs(Workload):
    name = "discrete-beliefs"
    trace_cycles = 20

    def build(self, bbl, data):
        def pair(item):
            return bbl.DiscreteLottery.from_dict(item[0]), bbl.Preferences.from_dict(item[1])

        return {"data": data, "linear": [pair(x) for x in data["linear"]],
                "general": [pair(x) for x in data["general"]]}

    def warmup(self, bbl, state):
        for lottery, prefs in state["linear"] + state["general"]:
            bbl.solve_optimal_beliefs(lottery, prefs)

    def ops(self, bbl, state):
        solve, timing = bbl.solve_optimal_beliefs, bbl.timing_preference
        linear = []
        for i, (lottery, prefs) in enumerate(state["linear"]):
            linear.append(Op("linear-solve", f"linear-solve:{i}", partial(solve, lottery, prefs)))
            op = Op("linear-timing", f"linear-timing:{i}", partial(timing, lottery, prefs))
            linear += [op, op]
        general = [Op(f"general-{lottery.size}", f"general:{i}", partial(solve, lottery, prefs))
                   for i, (lottery, prefs) in enumerate(state["general"])]
        # Five passes over the linear inputs, with the general solves spread
        # evenly between them so a partial cycle keeps the mix.
        cycle, per_pass = [], -(-len(general) // 5)
        for k in range(5):
            cycle += linear + general[k * per_pass:(k + 1) * per_pass]
        return cycle

    def check(self, bbl, state, op, result, results):
        kind, index = op.key.split(":")
        index = int(index)
        group = "general" if kind == "general" else "linear"
        lottery, prefs = state["data"][group][index]
        lottery_obj, prefs_obj = state[group][index]
        best = refs.best_utility(lottery, prefs)
        if kind == "linear-timing":
            solution = results.get(f"linear-solve:{index}")
            if solution is None:
                solution = bbl.solve_optimal_beliefs(lottery_obj, prefs_obj)
            if not refs.close(result.u_wait, best):
                return f"u_wait {result.u_wait!r} != optimum {best!r}"
            early = refs.utility_early(lottery, prefs, solution.q)
            if not refs.close(result.u_early, early):
                return f"u_early {result.u_early!r} != reference {early!r}"
            return _verdict_error(result.u_early - result.u_wait, result.tolerance, result.verdict,
                                  ("early", "wait", "indifferent"))
        if not refs.simplex_ok(result.q, len(lottery["payoffs"])):
            return f"q {result.q} is not a probability vector"
        at_e = refs.utility_at(lottery, prefs, result.subjective_expectation)
        if not refs.close(result.total_utility, at_e):
            return f"total_utility {result.total_utility!r} != U(E) {at_e!r}"
        if kind == "general":
            if result.total_utility < best - 1e-9 * max(1.0, abs(best)):
                return f"total_utility {result.total_utility!r} below scanned maximum {best!r}"
            return None
        if not refs.close(result.total_utility, best):
            return f"total_utility {result.total_utility!r} != optimum {best!r}"
        if index < GRID_CHECKED:
            step = 0.02 if lottery_obj.size > 3 else 0.01
            _, oracle = bbl.grid_search_beliefs(lottery_obj, prefs_obj, step)
            if oracle - result.total_utility > 1e-9:
                return f"grid_search_beliefs found {oracle!r} > {result.total_utility!r}"
        return None


def _verdict_error(diff: float, tolerance: float, verdict: str, names) -> str | None:
    above, below, tie = names
    want = tie if abs(diff) <= tolerance else (above if diff > 0 else below)
    return None if verdict == want else f"verdict {verdict!r}, expected {want!r} (diff {diff!r})"


# ---- continuous-sweep -------------------------------------------------------------


def _expected_sweep_row(density: refs.Density, pe, p_star: float, lam: float) -> tuple:
    eta = gen.eta_for_cutoff(p_star, lam)
    mean = density.mean()
    a = density.quantile(1.0 - p_star)
    return eta, eta * mean, eta * a, eta * (mean + (lam - 1.0) * pe(a))


def _partial_expectation(bbl, dist_obj, density: refs.Density):
    if dist_obj.kind == "tabulated":
        return density.partial_expectation
    return partial(bbl.partial_expectation_closed_form, dist_obj)


class ContinuousSweep(Workload):
    name = "continuous-sweep"
    trace_cycles = 1

    def build(self, bbl, data):
        return {"data": data, "lambda": data["lambda"],
                "dists": {k: bbl.ContinuousDistribution.from_dict(v) for k, v in data["dists"].items()},
                "prefs": [bbl.Preferences.from_dict(p) for p in data["prefs"]]}

    def warmup(self, bbl, state):
        dists = state["dists"]
        for dist in dists.values():
            bbl.sweep(dist, state["lambda"], (0.5,))
        for prefs in state["prefs"]:
            bbl.compare(dists["normal"], dists["mixture"], prefs, "naive")

    def ops(self, bbl, state):
        d, lam = state["dists"], state["lambda"]

        def sweep(name):
            return Op(f"sweep-{name}", f"sweep:{name}", partial(bbl.sweep, d[name], lam))

        def thresholds(name):
            return Op("thresholds", f"thresholds:{name}", partial(bbl.sweep_thresholds, d[name], lam))

        def compare(a, b, agent, i):
            return Op(f"compare-{agent}", f"compare:{a}:{b}:{agent}:{i}",
                      partial(bbl.compare, d[a], d[b], state["prefs"][i], agent))

        # Eleven tabulated sweeps (~1 s each) and five cheaper ops: the
        # tabulated sweeps hold both the median and the tail.  A median among
        # the ~20 ms normal sweeps flipped between the host's fast and slow
        # phases (run-to-run spread 0.4); one over ~1 s ops averages them.
        t = sweep("tabulated")
        return [t, sweep("normal"), t, t, compare("tabulated", "normal", "naive", 0), t, t,
                thresholds("normal"), t, t, sweep("mixture"), t, t,
                compare("mixture", "normal", "sophisticated", 1), t, t]

    def _density(self, state, name):
        cache = state.setdefault("densities", {})
        if name not in cache:
            cache[name] = refs.Density(state["data"]["dists"][name])
        return cache[name]

    def check(self, bbl, state, op, result, results):
        kind, name, *rest = op.key.split(":")
        density = self._density(state, name)
        lam = state["lambda"]
        if kind == "sweep":
            return _check_rows(bbl, [pt.to_dict() for pt in result], density,
                               _partial_expectation(bbl, state["dists"][name], density), lam)
        if kind == "thresholds":
            return self._check_thresholds(bbl, state, name, density, result)
        other, agent, i = rest
        prefs = state["data"]["prefs"][int(i)]
        values = []
        for dist_name in (name, other):
            dens = self._density(state, dist_name)
            values.append(_compare_value(bbl, state["dists"][dist_name], dens, prefs, agent))
        return _check_compare(result.to_dict(), values, result.tolerance)

    def _check_thresholds(self, bbl, state, name, density, result):
        dist = state["dists"][name]
        lo, hi = dist.support
        got = result["negative_subjective_mean"]
        if lo < 0 < hi:
            want = 1.0 - density.cdf(0.0)
            if got is None or not refs.close(got, want):
                return f"negative_subjective_mean {got!r} != {want!r}"
        pe = _partial_expectation(bbl, dist, density)
        cross = result["loss_moment_sign_change"]
        if cross is not None:
            moment = pe(density.quantile(1.0 - cross))
            if abs(moment) > 1e-8:
                return f"loss moment {moment!r} at the reported sign change {cross!r}"
        return None


def _check_rows(bbl, rows, density, pe, lam) -> str | None:
    grid = bbl.default_grid()
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    for row, p_star in zip(rows, grid):
        if not refs.close(row["p_star"], p_star):
            return f"p_star {row['p_star']!r} != {p_star!r}"
        want = _expected_sweep_row(density, pe, p_star, lam)
        got = (row["eta"], row["pi_rational"], row["pi_naive"], row["pi_sophisticated"])
        for field, g, w in zip(("eta", "pi_rational", "pi_naive", "pi_sophisticated"), got, want):
            if not refs.close(g, w):
                return f"p_star {p_star}: {field} {g!r} != reference {w!r}"
    return None


def _compare_value(bbl, dist_obj, density, prefs: dict, agent: str) -> float:
    eta, lam = prefs["eta"], prefs["lambda"]
    p_star = (eta * lam - 1.0) / (eta * (lam - 1.0))
    a = density.quantile(1.0 - p_star)
    if agent == "naive":
        return a
    pe = _partial_expectation(bbl, dist_obj, density)
    return eta * (density.mean() + (lam - 1.0) * pe(a))


def _check_compare(got: dict, want: list, tolerance: float) -> str | None:
    for field, w in zip(("value_a", "value_b"), want):
        if not refs.close(got[field], w):
            return f"{field} {got[field]!r} != reference {w!r}"
    return _verdict_error(got["value_a"] - got["value_b"], tolerance, got["verdict"],
                          ("prefer_a", "prefer_b", "indifferent"))


# ---- portfolio-shares -------------------------------------------------------------


def _check_value(objective, alpha: float, value: float, bounds=gen.BOUNDS, tol=None) -> str | None:
    """The solver's share lies within the bounds and its value is its objective there."""
    if not bounds[0] <= alpha <= bounds[1]:
        return f"alpha {alpha!r} outside {bounds}"
    at_alpha = objective(alpha)
    if not refs.close(at_alpha, value, **(tol or {})):
        return f"value {value!r} != objective at alpha {at_alpha!r}"
    return None


def _check_share(bbl, objective, alpha: float, value: float, bounds=gen.BOUNDS,
                 tol=None) -> str | None:
    """As ``_check_value``, and no grid point beats the solver's share."""
    error = _check_value(objective, alpha, value, bounds, tol)
    if error:
        return error
    at_alpha = objective(alpha)
    grid_alpha, grid_value = bbl.grid_search_alpha(objective, bounds, 2001)
    if grid_value - at_alpha > 1e-9 * max(1.0, abs(at_alpha)):
        return f"grid_search_alpha found {grid_value!r} at {grid_alpha!r} > {at_alpha!r} at {alpha!r}"
    return None


class PortfolioShares(Workload):
    name = "portfolio-shares"
    trace_cycles = 1

    def build(self, bbl, data):
        return {"assets": {k: bbl.Asset.from_dict(v) for k, v in data["assets"].items()},
                "prefs": {k: [bbl.Preferences.from_dict(p) for p in v] for k, v in data["prefs"].items()},
                "utility": bbl.ConsumptionUtility.from_dict(data["utility"])}

    def warmup(self, bbl, state):
        for asset in state["assets"].values():
            bbl.rational_alpha(asset, state["utility"])
        for name, prefs_list in state["prefs"].items():
            for prefs in prefs_list:
                bbl.sophisticated_alpha(state["assets"][name], prefs, state["utility"])

    def ops(self, bbl, state):
        # One rational, sophisticated and naive solve per (eta, asset): the
        # sub-millisecond rational and ~6 ms sophisticated solves put the median
        # among the sophisticated ones; non-converging naive solves make the tail.
        u = state["utility"]
        cycle = []
        for i in range(len(gen.ETA_GRID)):
            for name, asset in state["assets"].items():
                prefs = state["prefs"][name][i]
                cycle += [Op("rational", f"rational:{name}:-", partial(bbl.rational_alpha, asset, u)),
                          Op("sophisticated", f"sophisticated:{name}:{i}",
                             partial(bbl.sophisticated_alpha, asset, prefs, u)),
                          Op("naive", f"naive:{name}:{i}", partial(bbl.naive_alpha, asset, prefs, u))]
        return cycle

    def nonconverged(self, result):
        return not result.converged

    def check(self, bbl, state, op, result, results):
        kind, name, i = op.key.split(":")
        asset, u = state["assets"][name], state["utility"]
        if kind == "rational":
            objective = bbl.portfolio.rational_objective(asset, u)
        elif kind == "sophisticated":
            objective = bbl.portfolio.sophisticated_objective(asset, state["prefs"][name][int(i)], u)
        else:
            objective = bbl.portfolio.naive_fixed_objective(asset, state["prefs"][name][int(i)], u, result.alpha)
            if not result.converged:
                # No fixed point was found, so the grid may beat the share at
                # the last iterate; its value must still be the objective there.
                return _check_value(objective, result.alpha, result.value)
        return _check_share(bbl, objective, result.alpha, result.value)


# ---- cli-mix ----------------------------------------------------------------------


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        if len(values) != len(header) or not all(math.isfinite(v) for v in values):
            raise ValueError(f"bad CSV row {line!r}")
        rows.append(dict(zip(header, values)))
    return rows


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _bounds(argv: list[str]) -> tuple[float, float]:
    flag = next(a for a in argv if a.startswith("--bounds="))
    lo, hi = flag.split("=", 1)[1].split(":")
    return float(lo), float(hi)


CLI_TOL = dict(abs_tol=1e-8, rel_tol=2e-9)  # output is printed at 10 significant digits


class CliMix(Workload):
    name = "cli-mix"
    trace_cycles = 1
    # Commands whose in-process run fills the parser and import-time caches.
    WARMUP = ("pstar", "beliefs", "compare-sophisticated", "portfolio-rational")

    def __init__(self, subprocesses: bool = True):
        self.subprocesses = subprocesses

    def build(self, bbl, data):
        makers = {"--lottery": bbl.DiscreteLottery.from_dict, "--prefs": bbl.Preferences.from_dict,
                  "--dist": bbl.ContinuousDistribution.from_dict,
                  "--dist-a": bbl.ContinuousDistribution.from_dict,
                  "--dist-b": bbl.ContinuousDistribution.from_dict,
                  "--asset": bbl.Asset.from_dict, "--utility": bbl.ConsumptionUtility.from_dict}
        # Built for the set-up cost only: each command parses its own arguments.
        objects = [makers[flag](json.loads(value))
                   for argv in data["argvs"].values()
                   for flag, value in zip(argv, argv[1:]) if flag in makers]
        return {"argvs": data["argvs"], "objects": objects}

    def warmup(self, bbl, state):
        for name in self.WARMUP:
            run_in_process(bbl, state["argvs"][name])

    def ops(self, bbl, state):
        runner = run_subprocess if self.subprocesses else partial(run_in_process, bbl)
        return [Op(name, name, partial(runner, argv)) for name, argv in state["argvs"].items()]

    def failure(self, result):
        code, _, err = result
        if code != 0 and not self.nonconverged(result):
            return f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
        return None

    def nonconverged(self, result):
        """Exit 2 is how ``bbl portfolio`` reports a solve that did not converge."""
        code, out, _ = result
        if code != 2:
            return False
        try:
            return _strict_json(out).get("converged") is False
        except (ValueError, AttributeError):
            return False

    def check(self, bbl, state, op, result, results):
        code, out, _ = result
        argv = state["argvs"][op.key]
        if code != 0 and not out:
            return None  # an error exit prints nothing; failure() counts it
        try:
            parsed = _parse_csv(out) if "csv" in argv else _strict_json(out)
        except (ValueError, IndexError) as e:
            return f"stdout does not parse: {e}"
        if code != 0 and not self.nonconverged(result):
            return None  # already counted by failure(); the output must still parse
        return _CLI_CHECKS[argv[0] if argv[0] != "verify" else f"verify-{argv[1]}"](bbl, argv, parsed)


def run_subprocess(argv: list[str]) -> tuple[int, str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BBL_QUAD_TOL"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "bbl.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(bbl, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bbl.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_pstar(bbl, argv, value):
    lam = float(_flag(argv, "--lambda"))
    if "--p-star" in argv:
        want = gen.eta_for_cutoff(float(_flag(argv, "--p-star")), lam)
    else:
        eta = float(_flag(argv, "--eta"))
        want = (eta * lam - 1.0) / (eta * (lam - 1.0))
    return None if refs.close(value, want, **CLI_TOL) else f"pstar {value!r} != {want!r}"


def _cli_beliefs(bbl, argv, obj):
    lottery, prefs = json.loads(_flag(argv, "--lottery")), json.loads(_flag(argv, "--prefs"))
    best = refs.best_utility(lottery, prefs)
    if not refs.simplex_ok(obj["q"], len(lottery["payoffs"])):
        return f"q {obj['q']} is not a probability vector"
    if not refs.close(obj["total_utility"], best, **CLI_TOL):
        return f"total_utility {obj['total_utility']!r} != optimum {best!r}"
    return None


def _cli_timing(bbl, argv, obj):
    lottery, prefs = json.loads(_flag(argv, "--lottery")), json.loads(_flag(argv, "--prefs"))
    best = refs.best_utility(lottery, prefs)
    if not refs.close(obj["u_wait"], best, **CLI_TOL):
        return f"u_wait {obj['u_wait']!r} != optimum {best!r}"
    return _verdict_error(obj["u_early"] - obj["u_wait"], 1e-10, obj["verdict"],
                          ("early", "wait", "indifferent"))


def _cli_compare(bbl, argv, obj):
    prefs, agent = json.loads(_flag(argv, "--prefs")), _flag(argv, "--agent")
    want = []
    for flag in ("--dist-a", "--dist-b"):
        spec = json.loads(_flag(argv, flag))
        want.append(_compare_value(bbl, bbl.ContinuousDistribution.from_dict(spec),
                                   refs.Density(spec), prefs, agent))
    for field, w in zip(("value_a", "value_b"), want):
        if not refs.close(obj[field], w, **CLI_TOL):
            return f"{field} {obj[field]!r} != reference {w!r}"
    return None


def _cli_portfolio(bbl, argv, obj):
    asset = bbl.Asset.from_dict(json.loads(_flag(argv, "--asset")))
    utility = bbl.ConsumptionUtility.from_dict(json.loads(_flag(argv, "--utility")))
    agent = _flag(argv, "--agent")
    if agent == "rational":
        objective = bbl.portfolio.rational_objective(asset, utility)
    else:
        prefs = bbl.Preferences.from_dict(json.loads(_flag(argv, "--prefs")))
        objective = (bbl.portfolio.sophisticated_objective(asset, prefs, utility) if agent == "sophisticated"
                     else bbl.portfolio.naive_fixed_objective(asset, prefs, utility, obj["alpha"]))
    if obj["converged"] is False:
        return _check_value(objective, obj["alpha"], obj["value"], _bounds(argv), CLI_TOL)
    return _check_share(bbl, objective, obj["alpha"], obj["value"], _bounds(argv), CLI_TOL)


def _cli_equilibrium(bbl, argv, rows):
    spec = json.loads(_flag(argv, "--dist"))
    density = refs.Density(spec)
    dist = bbl.ContinuousDistribution.from_dict(spec)
    return _check_rows(bbl, rows, density, _partial_expectation(bbl, dist, density),
                       float(_flag(argv, "--lambda")))


def _cli_verify_beliefs(bbl, argv, obj):
    if "--random" in argv:
        cases = int(_flag(argv, "--random"))
        if obj["cases"] != cases or obj["failures"] != 0 or obj["max_gap"] > 1e-12:
            return f"verify --random reported {obj}"
        return None
    lottery, prefs = json.loads(_flag(argv, "--lottery")), json.loads(_flag(argv, "--prefs"))
    if not refs.simplex_ok(obj["q"], len(lottery["payoffs"])):
        return f"q {obj['q']} is not a probability vector"
    at_q = refs.utility_at(lottery, prefs, float(np.dot(obj["q"], lottery["payoffs"])))
    best = refs.best_utility(lottery, prefs)
    if not refs.close(obj["utility"], at_q, abs_tol=1e-7, rel_tol=1e-7) or obj["utility"] > best + 1e-7:
        return f"grid utility {obj['utility']!r} (U(q) {at_q!r}, optimum {best!r})"
    return None


def _cli_verify_alpha(bbl, argv, obj):
    """The grid oracle's share is within two grid steps of the solver's and no better."""
    asset = bbl.Asset.from_dict(json.loads(_flag(argv, "--asset")))
    utility = bbl.ConsumptionUtility.from_dict(json.loads(_flag(argv, "--utility")))
    lo, hi = _bounds(argv)
    if _flag(argv, "--agent") == "rational":
        solved = bbl.rational_alpha(asset, utility, (lo, hi))
        value = solved.value
    else:
        prefs = bbl.Preferences.from_dict(json.loads(_flag(argv, "--prefs")))
        solved = bbl.naive_alpha(asset, prefs, utility, (lo, hi))
        value = bbl.portfolio.naive_fixed_objective(asset, prefs, utility, solved.alpha)(solved.alpha)
    if abs(obj["alpha"] - solved.alpha) > 2.0 * (hi - lo) / 2000:
        return f"grid alpha {obj['alpha']!r} far from the solver's {solved.alpha!r}"
    if obj["value"] > value + 1e-7 * max(1.0, abs(value)):
        return f"grid value {obj['value']!r} beats the solver's {value!r}"
    return None


_CLI_CHECKS = {
    "pstar": _cli_pstar,
    "beliefs": _cli_beliefs,
    "timing": _cli_timing,
    "compare": _cli_compare,
    "portfolio": _cli_portfolio,
    "equilibrium": _cli_equilibrium,
    "verify-beliefs": _cli_verify_beliefs,
    "verify-alpha": _cli_verify_alpha,
}

WORKLOADS = {w.name: w for w in (DiscreteBeliefs(), ContinuousSweep(), PortfolioShares(), CliMix())}
