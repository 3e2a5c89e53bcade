"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``.

``calls`` counts spans (or counted leaf calls), ``self_ms`` sums span
duration minus child spans, ``ms_per_call`` is inclusive time per call, and
a ``*_per_call`` ratio divides a count made inside the spans by their number.
A ratio over zero calls reads 0; the report prints each ratio's base.
"""

from __future__ import annotations

from collections import defaultdict

import tracing

CLI_COMMANDS = ("pstar", "pstar-inverse", "beliefs", "timing", "compare-naive", "compare-sophisticated",
                "portfolio-rational", "portfolio-sophisticated", "portfolio-naive", "equilibrium-csv",
                "equilibrium-json", "verify-beliefs", "verify-beliefs-general", "verify-beliefs-random",
                "verify-alpha", "verify-alpha-naive")

PORTFOLIO_SOLVES = ("portfolio.rational_alpha", "portfolio.naive_alpha", "portfolio.sophisticated_alpha")

# name -> unit, in report order
UNITS = {
    "distributions.quantile.calls": "count",
    "distributions.quantile.self_ms": "ms",
    "distributions.quantile.ms_per_call": "ms",
    "distributions.quantile.cdf_per_call": "ratio",
    "distributions.cdf.calls": "count",
    "distributions.cdf.self_ms": "ms",
    "distributions.mean.calls": "count",
    "equilibrium.sweep.calls": "count",
    "equilibrium.sweep.self_ms": "ms",
    "equilibrium.sweep.ms_per_row": "ms",
    "distributions.partial_expectation.calls": "count",
    "distributions.partial_expectation.self_ms": "ms",
    "distributions.quad_nodes.calls": "count",
    "distributions.quad_nodes.self_ms": "ms",
    "distributions.quad_nodes.nodes": "count",
    "equilibrium.sweep_thresholds.self_ms": "ms",
    "distributions.from_dict.self_ms": "ms",
    "portfolio.naive_alpha.calls": "count",
    "portfolio.naive_alpha.self_ms": "ms",
    "portfolio.naive_alpha.iterations_per_call": "ratio",
    "portfolio.naive_alpha.value_array_per_call": "ratio",
    "portfolio.naive_alpha.converged_frac": "ratio",
    "portfolio.rational_alpha.calls": "count",
    "portfolio.rational_alpha.self_ms": "ms",
    "portfolio.sophisticated_alpha.calls": "count",
    "portfolio.sophisticated_alpha.self_ms": "ms",
    "portfolio.quad_nodes_per_solve": "ratio",
    "beliefs.general_residual_solve.calls": "count",
    "beliefs.general_residual_solve.self_ms": "ms",
    "beliefs.general_residual_solve.ms_per_call": "ms",
    "beliefs.general_residual_solve.loss_multiplier_per_call": "ratio",
    "preferences.loss_multiplier.calls": "count",
    "beliefs.solve_optimal_beliefs.calls": "count",
    "beliefs.solve_optimal_beliefs.self_ms": "ms",
    "beliefs.canonical_beliefs.self_ms": "ms",
    "timing.timing_preference.calls": "count",
    "timing.timing_preference.self_ms": "ms",
    "preferences.gain_loss.calls": "count",
    "oracles.grid_search_beliefs.calls": "count",
    "oracles.grid_search_beliefs.self_ms": "ms",
    "oracles.grid_search_beliefs.points": "count",
    "oracles.grid_search_alpha.calls": "count",
    "oracles.grid_search_alpha.self_ms": "ms",
    "oracles.simpson_integral.calls": "count",
    "cli.run.self_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{name}.wall_ms": "ms" for name in CLI_COMMANDS},
    "setup.import_ms": "ms",
    "setup.build_ms": "ms",
    "setup.warmup_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def span_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """Every span-derived metric of UNITS, from the tracer's spans and counters."""
    spans = tracer.spans
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    total_ms: dict[str, float] = defaultdict(float)
    extra: dict[tuple[str, str], float] = defaultdict(float)
    inside: dict[tuple[str, str], int] = defaultdict(int)  # (span, counter) -> count
    for span, own in zip(spans, tracing.self_times(spans)):
        calls[span.name] += 1
        self_ms[span.name] += own * 1e3
        total_ms[span.name] += span.duration * 1e3
        for field, value in span.extra.items():
            extra[span.name, field] += value
        for counter, start, end in zip(tracer.counted, span.counts_start, span.counts_end):
            inside[span.name, counter] += end - start

    cdf_in_quantile = sum(1 for s in spans if s.name == "distributions.cdf" and s.parent >= 0
                          and spans[s.parent].name == "distributions.quantile")
    outer_solves, nodes_in_solves = 0, 0
    for span in spans:
        if span.name in PORTFOLIO_SOLVES or span.name == "distributions.quad_nodes":
            ancestor, inner = span.parent, False
            while ancestor >= 0 and not inner:
                inner = spans[ancestor].name in PORTFOLIO_SOLVES
                ancestor = spans[ancestor].parent
            if span.name in PORTFOLIO_SOLVES:
                outer_solves += not inner
            else:
                nodes_in_solves += inner
    totals = dict(zip(tracer.counted, tracer.counts))

    out = {}
    for name in ("distributions.quantile", "distributions.cdf", "distributions.mean",
                 "equilibrium.sweep", "distributions.partial_expectation", "distributions.quad_nodes",
                 "portfolio.naive_alpha", "portfolio.rational_alpha", "portfolio.sophisticated_alpha",
                 "beliefs.general_residual_solve", "beliefs.solve_optimal_beliefs",
                 "timing.timing_preference", "oracles.grid_search_beliefs", "oracles.grid_search_alpha",
                 "oracles.simpson_integral"):
        out[f"{name}.calls"] = calls[name]
    for name in ("distributions.quantile", "distributions.cdf", "equilibrium.sweep",
                 "distributions.partial_expectation", "distributions.quad_nodes",
                 "equilibrium.sweep_thresholds", "distributions.from_dict", "portfolio.naive_alpha",
                 "portfolio.rational_alpha", "portfolio.sophisticated_alpha",
                 "beliefs.general_residual_solve", "beliefs.solve_optimal_beliefs",
                 "beliefs.canonical_beliefs", "timing.timing_preference", "oracles.grid_search_beliefs",
                 "oracles.grid_search_alpha", "cli.run"):
        out[f"{name}.self_ms"] = self_ms[name]
    for name in ("distributions.quantile", "beliefs.general_residual_solve"):
        out[f"{name}.ms_per_call"] = _ratio(total_ms[name], calls[name])
    naive = "portfolio.naive_alpha"
    out.update({
        "distributions.quantile.cdf_per_call": _ratio(cdf_in_quantile, calls["distributions.quantile"]),
        "equilibrium.sweep.ms_per_row": _ratio(total_ms["equilibrium.sweep"],
                                               extra["equilibrium.sweep", "rows"]),
        "distributions.quad_nodes.nodes": extra["distributions.quad_nodes", "nodes"],
        f"{naive}.iterations_per_call": _ratio(extra[naive, "iterations"], calls[naive]),
        f"{naive}.value_array_per_call": _ratio(inside[naive, "beliefs.value_array"], calls[naive]),
        f"{naive}.converged_frac": _ratio(extra[naive, "converged"], calls[naive]),
        "portfolio.quad_nodes_per_solve": _ratio(nodes_in_solves, outer_solves),
        "beliefs.general_residual_solve.loss_multiplier_per_call": _ratio(
            inside["beliefs.general_residual_solve", "preferences.loss_multiplier"],
            calls["beliefs.general_residual_solve"]),
        "preferences.loss_multiplier.calls": totals["preferences.loss_multiplier"],
        "preferences.gain_loss.calls": totals["preferences.gain_loss"],
        "oracles.grid_search_beliefs.points": extra["oracles.grid_search_beliefs", "points"],
    })
    return out


def bases(tracer: tracing.Tracer) -> dict[str, str]:
    """The denominator behind each ratio, for the report."""
    n = defaultdict(int)
    for span in tracer.spans:
        n[span.name] += 1
    return {
        "distributions.quantile.cdf_per_call": f"{n['distributions.quantile']} quantile calls",
        "equilibrium.sweep.ms_per_row": f"{n['equilibrium.sweep']} sweeps",
        "portfolio.naive_alpha.iterations_per_call": f"{n['portfolio.naive_alpha']} naive solves",
        "portfolio.naive_alpha.value_array_per_call": f"{n['portfolio.naive_alpha']} naive solves",
        "portfolio.naive_alpha.converged_frac": f"{n['portfolio.naive_alpha']} naive solves",
        "beliefs.general_residual_solve.loss_multiplier_per_call":
            f"{n['beliefs.general_residual_solve']} general solves",
    }
