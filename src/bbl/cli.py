"""Command-line front end: parse inputs, dispatch to the solvers, emit JSON/CSV.

Exit codes: 0 on success, 1 on an input error, 2 on a numerical failure
(non-convergence, a non-finite result or a failed oracle verification).
Numbers are printed at 10 significant digits so identical inputs give
byte-identical output; NaN and infinities are never printed.

Only ``portfolio`` and ``verify`` import numpy: their handlers import the
portfolio solvers and the oracles when they run, so ``pstar``, ``beliefs``,
``timing``, ``compare`` and ``equilibrium`` start without it.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import equilibrium as eq
from .beliefs import ConsumptionUtility, DiscreteLottery, solve_optimal_beliefs
from .distributions import ContinuousDistribution, compare
from .equilibrium import _fmt
from .errors import _finite
from .preferences import Preferences, cutoff_probability, eta_for_cutoff
from .timing import timing_preference

__all__ = ["run", "main"]


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI reserves 2 for
    # numerical failure, so argument problems are rethrown and mapped to 1.
    def error(self, message):
        raise _CliArgumentError(message)


def _round10(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round10(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round10(v) for v in obj]
    return obj


def _load_json(name: str, text: str):
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as e:
            raise ValueError(f"argument {name}: invalid JSON: {e}") from e
    try:
        with open(text, "r", encoding="utf-8") as fh:
            body = fh.read()
    except OSError as e:
        raise ValueError(f"argument {name}: cannot read file {text!r}: {e}") from e
    try:
        return json.loads(body)
    except json.JSONDecodeError as e:
        raise ValueError(f"argument {name}: invalid JSON in file {text!r}: {e}") from e


def _parse_colon(name: str, text: str, fields: tuple[str, ...]) -> tuple[float, ...]:
    """The finite numbers of a colon-separated argument with one part per field."""
    parts = text.split(":")
    if len(parts) != len(fields):
        raise ValueError(f"argument {name}: expected {':'.join(fields)}, got {text!r}")
    return tuple(_finite(f"argument {name}: {field}", v) for field, v in zip(fields, parts))


def _checked(name: str, fn, *args):
    """``fn(*args)``, with its ValueError re-raised as an error of argument ``name``."""
    try:
        return fn(*args)
    except ValueError as e:
        raise ValueError(f"argument {name}: {e}") from None


def _emit_text(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, output: str | None) -> None:
    _emit_text(json.dumps(_round10(obj), indent=2) + "\n", output)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bbl", description="Optimal biased beliefs: solvers and pricing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pstar", help="cutoff probability or its inverse")
    p.add_argument("--eta", type=float)
    p.add_argument("--lambda", dest="lambda0", type=float, required=True)
    p.add_argument("--p-star", dest="p_star", type=float)

    for name, text in (("beliefs", "solve for optimal subjective beliefs"),
                       ("timing", "early-versus-wait information verdict")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--lottery", required=True)
        p.add_argument("--prefs", required=True)

    p = sub.add_parser("compare", help="rank two continuous lotteries")
    p.add_argument("--dist-a", required=True)
    p.add_argument("--dist-b", required=True)
    p.add_argument("--prefs", required=True)
    p.add_argument("--agent", choices=["naive", "sophisticated"], required=True)

    p = sub.add_parser("portfolio", help="solve the risky-share problem")
    p.add_argument("--asset", required=True)
    p.add_argument("--agent", choices=["rational", "naive", "sophisticated"], required=True)
    p.add_argument("--prefs")
    p.add_argument("--utility")
    p.add_argument("--bounds")

    p = sub.add_parser("equilibrium", help="price sweep over the cutoff grid")
    p.add_argument("--dist", required=True)
    p.add_argument("--lambda", dest="lambda0", type=float, required=True)
    p.add_argument("--grid", default="0.05:0.95:0.01")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("verify", help="rerun a solver against its brute-force oracle")
    p.add_argument("target", choices=["beliefs", "alpha"])
    p.add_argument("--lottery")
    p.add_argument("--prefs")
    p.add_argument("--step", type=float, default=0.02, help="grid spacing 1/round(1/STEP): 0.4 gives 0.5")
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--asset")
    p.add_argument("--agent", choices=["rational", "naive", "sophisticated"], default="rational")
    p.add_argument("--utility")
    p.add_argument("--bounds")
    for p in sub.choices.values():
        p.add_argument("--output", "-o")
    return parser


def _cmd_pstar(args) -> int:
    if args.p_star is not None:
        value = eta_for_cutoff(args.p_star, args.lambda0)
    else:
        if args.eta is None:
            raise ValueError("pstar: provide --eta (forward) or --p-star (inverse)")
        value = cutoff_probability(Preferences(eta=args.eta, lambda0=args.lambda0))
    _emit_text(_fmt(value) + "\n", args.output)
    return 0


def _cmd_lottery(args) -> int:
    """``beliefs`` and ``timing``: one solver on a lottery and preferences."""
    lottery = DiscreteLottery.from_dict(_load_json("--lottery", args.lottery))
    prefs = Preferences.from_dict(_load_json("--prefs", args.prefs))
    solve = solve_optimal_beliefs if args.command == "beliefs" else timing_preference
    _emit_json(solve(lottery, prefs).to_dict(), args.output)
    return 0


def _cmd_compare(args) -> int:
    dist_a = ContinuousDistribution.from_dict(_load_json("--dist-a", args.dist_a))
    dist_b = ContinuousDistribution.from_dict(_load_json("--dist-b", args.dist_b))
    prefs = Preferences.from_dict(_load_json("--prefs", args.prefs))
    _emit_json(compare(dist_a, dist_b, prefs, args.agent).to_dict(), args.output)
    return 0


def _portfolio_inputs(args, command: str):
    """Asset, utility, bounds and the preferences, None for the rational agent."""
    from .portfolio import DEFAULT_BOUNDS, Asset
    asset = Asset.from_dict(_load_json("--asset", args.asset))
    utility = (ConsumptionUtility.from_dict(_load_json("--utility", args.utility))
               if args.utility else ConsumptionUtility())
    bounds = DEFAULT_BOUNDS if args.bounds is None else _parse_colon("--bounds", args.bounds, ("lo", "hi"))
    if args.agent == "rational":
        return asset, utility, bounds, None
    if args.prefs is None:
        raise ValueError(f"{command}: agent {args.agent!r} requires --prefs")
    return asset, utility, bounds, Preferences.from_dict(_load_json("--prefs", args.prefs))


def _cmd_portfolio(args) -> int:
    from .portfolio import naive_alpha, rational_alpha, sophisticated_alpha
    asset, utility, bounds, prefs = _portfolio_inputs(args, "portfolio")
    if prefs is None:
        solution = rational_alpha(asset, utility, bounds)
    else:
        solve = naive_alpha if args.agent == "naive" else sophisticated_alpha
        solution = solve(asset, prefs, utility, bounds)
    _emit_json(solution.to_dict(), args.output)
    return 0 if solution.converged else 2


def _cmd_equilibrium(args) -> int:
    dist = ContinuousDistribution.from_dict(_load_json("--dist", args.dist))
    start, end, step = _parse_colon("--grid", args.grid, ("start", "end", "step"))
    points = eq.sweep(dist, args.lambda0, _checked("--grid", eq.default_grid, start, end, step))
    if args.format == "csv":
        buf = io.StringIO()
        eq.write_sweep_csv(points, buf)
        _emit_text(buf.getvalue(), args.output)
    else:
        _emit_json([pt.to_dict() for pt in points], args.output)
    return 0


def _random_lottery(rng: np.random.Generator) -> DiscreteLottery:
    size = int(rng.integers(2, 5))
    payoffs = rng.uniform(0.0, 10.0, size)
    payoffs.sort()
    probs = rng.dirichlet([1.0] * size)
    probs = probs / probs.sum()
    return DiscreteLottery(tuple(payoffs), tuple(probs))


def _random_prefs(rng: np.random.Generator) -> Preferences:
    eta = rng.uniform(0.3, 1.0)
    lam = rng.uniform(max(1.02, 1.0 / eta), 4.0)
    return Preferences(eta=eta, lambda0=lam)


def _cmd_verify(args) -> int:
    from .oracles import _grid_step, grid_search_alpha, grid_search_beliefs
    if args.target == "beliefs":
        _checked("--step", _grid_step, args.step)
        if args.random < 0:
            raise ValueError(f"argument --random: expected a non-negative case count, got {args.random}")
        if args.random > 0:
            import numpy as np
            rng = _checked("--seed", np.random.default_rng, args.seed)
            failures = 0
            worst = 0.0
            for _ in range(args.random):
                lottery = _random_lottery(rng)
                prefs = _random_prefs(rng)
                solution = solve_optimal_beliefs(lottery, prefs)
                _, oracle_value = grid_search_beliefs(lottery, prefs, args.step)
                gap = oracle_value - solution.total_utility
                worst = max(worst, gap)
                if gap > 1e-12:
                    failures += 1
            _emit_json({"cases": args.random, "failures": failures, "max_gap": worst},
                       args.output)
            return 0 if failures == 0 else 2
        if args.lottery is None or args.prefs is None:
            raise ValueError("verify beliefs: provide --lottery and --prefs, or --random N")
        lottery = DiscreteLottery.from_dict(_load_json("--lottery", args.lottery))
        prefs = Preferences.from_dict(_load_json("--prefs", args.prefs))
        q, value = grid_search_beliefs(lottery, prefs, args.step)
        _emit_json({"q": list(q), "utility": value}, args.output)
        return 0

    if args.asset is None:
        raise ValueError("verify alpha: provide --asset")
    from .portfolio import naive_alpha, naive_fixed_objective, rational_objective, sophisticated_objective
    asset, utility, bounds, prefs = _portfolio_inputs(args, "verify alpha")
    if prefs is None:
        objective = rational_objective(asset, utility)
    elif args.agent == "sophisticated":
        objective = sophisticated_objective(asset, prefs, utility)
    else:
        solution = naive_alpha(asset, prefs, utility, bounds)
        objective = naive_fixed_objective(asset, prefs, utility, solution.alpha)
    alpha, value = grid_search_alpha(objective, bounds)
    _emit_json({"alpha": alpha, "value": value}, args.output)
    return 0


_COMMANDS = {
    "pstar": _cmd_pstar,
    "beliefs": _cmd_lottery,
    "timing": _cmd_lottery,
    "compare": _cmd_compare,
    "portfolio": _cmd_portfolio,
    "equilibrium": _cmd_equilibrium,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliArgumentError as e:
        print(f"bbl: error: {e}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ArithmeticError as e:
        print(f"bbl: numerical failure: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"bbl: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
