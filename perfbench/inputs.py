"""Seeded inputs for the four workloads, as plain JSON-ready values.

Generation uses only the standard library: a set-up probe builds its inputs
before ``import bbl``, and numpy imported here would hide part of the import
cost that ``setup_s`` is meant to show.  The same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
import random

LAMBDA = 2.25
POWER2 = {"kind": "power", "rho": 2}
BOUNDS = (-10.0, 10.0)
TABULATED_POINTS = 601

# Asset of tests/conftest.py::calibrated_asset, on which every portfolio solver
# is well posed.
CALIBRATED_ASSET = {
    "r_f": 1.0,
    "excess": {"tabulated": {"z": [-0.9, -0.5, 0.0, 0.1, 0.5, 0.9],
                             "f": [0.4, 0.0, 0.0, 0.92 / 0.65, 0.92 / 0.65, 0.0]}},
}


def _dirichlet(rng: random.Random, n: int) -> list[float]:
    g = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
    total = math.fsum(g)
    return [x / total for x in g]


def lottery(rng: random.Random, size: int) -> dict:
    """Distinct ascending payoffs on [0, 10] with Dirichlet(1) probabilities."""
    while True:
        payoffs = sorted(rng.uniform(0.0, 10.0) for _ in range(size))
        if len(set(payoffs)) == size:
            return {"payoffs": payoffs, "probs": _dirichlet(rng, size)}


def linear_prefs(rng: random.Random) -> dict:
    """As tests/conftest.py::random_prefs: lambda >= 1/eta, so the cutoff is nonnegative."""
    eta = rng.uniform(0.3, 1.0)
    return {"eta": eta, "lambda": rng.uniform(max(1.02, 1.0 / eta), 4.0)}


def general_prefs(rng: random.Random) -> dict:
    eta = rng.uniform(0.5, 0.9)
    beta = rng.uniform(0.8, min(1.2, 0.98 / eta))
    kappa = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
    return {"eta": eta, "lambda": rng.uniform(1.5, 3.5),
            "gain_loss": {"kind": "general", "beta": beta, "kappa": kappa}}


def eta_for_cutoff(p_star: float, lambda0: float) -> float:
    return 1.0 / (lambda0 - p_star * (lambda0 - 1.0))


def cutoff_prefs(rng: random.Random) -> dict:
    """Linear preferences whose cutoff lies in [0.1, 0.9], as the continuous kernel needs."""
    lam = rng.uniform(1.5, 3.5)
    return {"eta": eta_for_cutoff(rng.uniform(0.1, 0.9), lam), "lambda": lam}


def normal(rng: random.Random) -> dict:
    return {"normal": {"mean": rng.uniform(-0.5, 1.5), "sd": rng.uniform(0.5, 2.0)}}


def mixture(rng: random.Random) -> dict:
    w = rng.uniform(0.2, 0.8)
    return {"mixture": [
        {"w": w, "mean": rng.uniform(0.0, 1.5), "sd": rng.uniform(0.4, 1.2)},
        {"w": 1.0 - w, "mean": rng.uniform(-2.0, 0.0), "sd": rng.uniform(0.8, 2.0)},
    ]}


def tabulated(rng: random.Random) -> dict:
    """Two Gaussian bumps on an even grid, scaled to unit trapezoid mass."""
    points = TABULATED_POINTS
    lo, hi = rng.uniform(-6.0, -4.0), rng.uniform(4.0, 6.0)
    w = rng.uniform(0.3, 0.7)
    m1, s1 = rng.uniform(-2.0, 0.0), rng.uniform(0.6, 1.5)
    m2, s2 = rng.uniform(0.0, 2.0), rng.uniform(0.6, 1.5)
    z = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    f = [w * math.exp(-0.5 * ((x - m1) / s1) ** 2) / s1
         + (1.0 - w) * math.exp(-0.5 * ((x - m2) / s2) ** 2) / s2 for x in z]
    mass = math.fsum((f[i] + f[i + 1]) * (z[i + 1] - z[i]) * 0.5 for i in range(points - 1))
    return {"tabulated": {"z": z, "f": [v / mass for v in f]}}


def normal_asset(rng: random.Random) -> dict:
    """N(0.05, 0.2) excess returns with a small seeded jitter."""
    return {"r_f": 1.0, "excess": {"normal": {"mean": 0.05 + rng.uniform(-0.002, 0.002),
                                              "sd": 0.2 + rng.uniform(-0.005, 0.005)}}}


# The README's asset, on which the naive iteration stops converging from eta ~ 0.68.
README_ASSET = {"r_f": 1.0, "excess": {"normal": {"mean": 0.05, "sd": 0.2}}}
# eta = 0.50, 0.55, ..., 0.85 in bit-reversed order, so any prefix of a cycle
# mixes low and high eta.
ETA_GRID = tuple(0.5 + 0.05 * k for k in (0, 4, 2, 6, 1, 5, 3, 7))


def discrete_beliefs(seed: int) -> dict:
    rng = random.Random(seed)
    # Three states each: the median sits among the timing ops, whose cost grows
    # with the size, and a mix of sizes would put it on a boundary between sizes.
    linear = [(lottery(rng, 3), linear_prefs(rng)) for _ in range(48)]
    general = [(lottery(rng, size), general_prefs(rng))
               for size, count in ((4, 8), (30, 4), (100, 2)) for _ in range(count)]
    return {"linear": linear, "general": general}


def continuous_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    dists = {"normal": normal(rng), "mixture": mixture(rng), "tabulated": tabulated(rng)}
    return {"dists": dists, "lambda": rng.uniform(1.5, 3.5),
            "prefs": [cutoff_prefs(rng) for _ in range(2)]}


def portfolio_shares(seed: int) -> dict:
    """The calibrated asset at seeded eta, and the README asset on the fixed eta grid.

    A non-converging naive solve runs 200 iterations from each failing start,
    and how many starts fail shifts with tiny changes of eta or the asset
    (0.9 to 1.6 s per solve), so the README asset's inputs are not jittered:
    every seed then covers both sides of the convergence boundary at the
    same cost.
    """
    rng = random.Random(seed)
    calibrated = [eta + 0.05 * rng.random() for eta in ETA_GRID]
    return {"assets": {"calibrated": CALIBRATED_ASSET, "normal": README_ASSET},
            "prefs": {"calibrated": [{"eta": eta, "lambda": LAMBDA} for eta in calibrated],
                      "normal": [{"eta": eta, "lambda": LAMBDA} for eta in ETA_GRID]},
            "utility": POWER2}


# "--bounds -10:10", as the README writes it, is read by argparse as a flag.
BOUNDS_FLAG = f"--bounds={BOUNDS[0]:g}:{BOUNDS[1]:g}"


def cli_mix(seed: int) -> dict:
    """One argv per README subcommand form, with seeded JSON arguments."""
    rng = random.Random(seed)
    lam = rng.uniform(1.5, 3.5)
    lot, prefs = lottery(rng, rng.choice((2, 3, 4))), linear_prefs(rng)
    # Four states at step 0.01 is the largest grid the oracle accepts.
    small = lottery(rng, 4)
    small_prefs = linear_prefs(rng)
    tab, norm, mix = tabulated(rng), normal(rng), mixture(rng)
    cmp_prefs = cutoff_prefs(rng)
    asset = normal_asset(rng)
    naive_prefs = {"eta": 0.7, "lambda": LAMBDA}  # the README asset's known non-convergence
    soph_prefs = {"eta": rng.uniform(0.5, 0.9), "lambda": LAMBDA}
    calibrated_prefs = {"eta": rng.uniform(0.5, 0.9), "lambda": LAMBDA}
    util = _json(POWER2)
    argvs = {
        "pstar": ["pstar", "--eta", repr(rng.uniform(1.0 / lam, 1.0)), "--lambda", repr(lam)],
        "pstar-inverse": ["pstar", "--p-star", repr(rng.uniform(0.05, 0.95)), "--lambda", repr(lam)],
        "beliefs": ["beliefs", "--lottery", _json(lot), "--prefs", _json(prefs)],
        "timing": ["timing", "--lottery", _json(lot), "--prefs", _json(prefs)],
        "compare-naive": ["compare", "--dist-a", _json(tab), "--dist-b", _json(norm),
                          "--prefs", _json(cmp_prefs), "--agent", "naive"],
        "compare-sophisticated": ["compare", "--dist-a", _json(mix), "--dist-b", _json(norm),
                                  "--prefs", _json(cmp_prefs), "--agent", "sophisticated"],
        "portfolio-rational": ["portfolio", "--asset", _json(asset), "--agent", "rational",
                               "--utility", util, BOUNDS_FLAG],
        "portfolio-sophisticated": ["portfolio", "--asset", _json(CALIBRATED_ASSET),
                                    "--agent", "sophisticated", "--prefs", _json(soph_prefs),
                                    "--utility", util, BOUNDS_FLAG],
        "portfolio-naive": ["portfolio", "--asset", _json(README_ASSET), "--agent", "naive",
                            "--prefs", _json(naive_prefs), "--utility", util, BOUNDS_FLAG],
        "equilibrium-csv": ["equilibrium", "--dist", _json(norm), "--lambda", repr(lam),
                            "--grid", "0.05:0.95:0.01", "--format", "csv"],
        "equilibrium-json": ["equilibrium", "--dist", _json(mix), "--lambda", repr(lam)],
        "verify-beliefs": ["verify", "beliefs", "--lottery", _json(small),
                           "--prefs", _json(small_prefs), "--step", "0.01"],
        "verify-beliefs-general": ["verify", "beliefs", "--lottery", _json(lottery(rng, 3)),
                                   "--prefs", _json(general_prefs(rng)), "--step", "0.01"],
        # The README's oracle seed: the peak RSS of this command, the largest
        # of the mix, depends on the sizes its own generator draws.
        "verify-beliefs-random": ["verify", "beliefs", "--random", "50", "--seed", "7"],
        "verify-alpha": ["verify", "alpha", "--asset", _json(asset), "--utility", util,
                         "--agent", "rational", BOUNDS_FLAG],
        "verify-alpha-naive": ["verify", "alpha", "--asset", _json(CALIBRATED_ASSET), "--utility", util,
                               "--agent", "naive", "--prefs", _json(calibrated_prefs), BOUNDS_FLAG],
    }
    return {"argvs": argvs}


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


GENERATORS = {
    "discrete-beliefs": discrete_beliefs,
    "continuous-sweep": continuous_sweep,
    "portfolio-shares": portfolio_shares,
    "cli-mix": cli_mix,
}
