"""Print one JSON line per portfolio solve, sweep row, sweep threshold, lottery comparison,
discrete belief solve and timing verdict over a fixed set of inputs, so that two trees can be
compared with ``diff``.

The portfolio inputs are the seeded corpora of ``tests/test_portfolio.py``
(``naive_corpus()``, ``eta_corpus()`` and ``naive_corpus(seed=7, per_cell=20)``), the README
asset and five zero-mean symmetric assets under linear, log and power rho = 2 utility at eta
0.50 to 0.90 in steps of 0.05 (lambda 2.25), each solved on eight bounds by the three agents.
Each line holds the case index, the bounds, the agent and the solution's ``alpha``,
``value``, ``r_ce``, ``belief_expectation``, ``converged`` and ``iterations``.

The pricing inputs are the seeded normal, mixture and tabulated densities of
``tests/test_equilibrium.py``: each of ``sweep_corpus(15, 10)`` swept at its own lambda on
the default grid and on ``0.001:0.999:0.001`` (one line per row), each of
``threshold_corpus(23, 20)`` given its ``sweep_thresholds`` at lambda 2.25, and each
neighbouring pair of it compared by the naive and the sophisticated agent at five cutoffs.

The discrete inputs are the seeded lotteries of ``tests/test_timing.py``, linear and general
gain-loss: ``timing_corpus()`` (2 to 30 states) and ``timing_corpus(seed=7, size=60, sizes=(50,
75, 100))``; each gives one line for ``solve_optimal_beliefs`` and one for ``timing_preference``.

Floats are written by ``repr``; a call that raises gives its error instead.  No options.
From the repository root:

    PYTHONPATH=src python tools/solve_dump.py > solves.jsonl
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_equilibrium import sweep_corpus, threshold_corpus  # noqa: E402
from test_portfolio import NORMAL_ASSET, eta_corpus, naive_corpus  # noqa: E402
from test_timing import timing_corpus  # noqa: E402

from bbl import (  # noqa: E402
    Asset,
    ConsumptionUtility,
    ContinuousDistribution,
    Preferences,
    compare,
    default_grid,
    eta_for_cutoff,
    solve_optimal_beliefs,
    sweep,
    sweep_thresholds,
    timing_preference,
)
from bbl.portfolio import naive_alpha, rational_alpha, sophisticated_alpha  # noqa: E402

BOUNDS = [(-10.0, 10.0), (0.0, 10.0), (-10.0, 0.0), (0.0, 0.0), (0.3, 0.3), (0.3, 1.0),
          (-1.0, -0.3), (-0.5, 0.5)]
UTILITIES = [ConsumptionUtility(), ConsumptionUtility("log"), ConsumptionUtility("power", 2.0)]
ETAS = [0.5 + 0.05 * k for k in range(9)]
SYMMETRIC = [
    ContinuousDistribution.normal(0.0, 0.2),
    ContinuousDistribution.normal(0.0, 1.0),
    ContinuousDistribution.mixture([(0.5, -0.3, 0.1), (0.5, 0.3, 0.1)]),
    ContinuousDistribution.tabulated((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0)),  # tent
    ContinuousDistribution.tabulated((-1.0, 1.0), (0.5, 0.5)),  # uniform
]
SOLVERS = {
    "rational": lambda asset, prefs, utility, bounds: rational_alpha(asset, utility, bounds),
    "naive": naive_alpha,
    "sophisticated": sophisticated_alpha,
}
FIELDS = ("alpha", "value", "r_ce", "belief_expectation", "converged", "iterations")
GRIDS = {"default": None, "fine": default_grid(0.001, 0.999, 0.001)}
LAMBDA = 2.25
CUTOFFS = (0.05, 0.3, 0.5, 0.7, 0.95)


def cases():
    """``(asset, prefs, utility)`` triples, in a fixed order."""
    yield from naive_corpus()
    yield from eta_corpus()
    yield from naive_corpus(seed=7, per_cell=20)
    for asset in [NORMAL_ASSET, *(Asset(1.0, excess) for excess in SYMMETRIC)]:
        for utility in UTILITIES:
            for eta in ETAS:
                yield asset, Preferences(eta=eta, lambda0=2.25), utility


def main():
    for case, (asset, prefs, utility) in enumerate(cases()):
        for bounds in BOUNDS:
            for agent, solve in SOLVERS.items():
                line = {"case": case, "bounds": bounds, "agent": agent}
                try:
                    sol = solve(asset, prefs, utility, bounds)
                except (ArithmeticError, ValueError) as exc:
                    line["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    line.update((name, getattr(sol, name)) for name in FIELDS)
                print(json.dumps(line))
    for case, (dist, lam) in enumerate(sweep_corpus(15, 10)):
        for grid, p_stars in GRIDS.items():
            for row in sweep(dist, lam, p_stars):
                print(json.dumps({"sweep": case, "lambda": lam, "grid": grid, **row.to_dict()}))
    dists = threshold_corpus(23, 20)
    for case, dist in enumerate(dists):
        print(json.dumps({"thresholds": case, "lambda": LAMBDA, **sweep_thresholds(dist, LAMBDA)}))
    for case, pair in enumerate(zip(dists, dists[1:])):
        for p_star in CUTOFFS:
            prefs = Preferences(eta=eta_for_cutoff(p_star, LAMBDA), lambda0=LAMBDA)
            for agent in ("naive", "sophisticated"):
                line = {"compare": case, "p_star": p_star, "agent": agent}
                try:
                    line.update(compare(*pair, prefs, agent).to_dict())
                except (ArithmeticError, ValueError) as exc:
                    line["error"] = f"{type(exc).__name__}: {exc}"
                print(json.dumps(line))
    lotteries = [*timing_corpus(), *timing_corpus(seed=7, size=60, sizes=(50, 75, 100))]
    for case, (lottery, prefs) in enumerate(lotteries):
        print(json.dumps({"beliefs": case, **solve_optimal_beliefs(lottery, prefs).to_dict()}))
        print(json.dumps({"timing": case, **timing_preference(lottery, prefs).to_dict()}))


if __name__ == "__main__":
    main()
