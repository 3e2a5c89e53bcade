"""Spans around calls into bbl's public functions, recorded from outside the package.

The modules bind names by import (``bbl.beliefs.loss_multiplier``,
``bbl.equilibrium.naive_value``, ``bbl.cli.solve_optimal_beliefs``), so a
wrapper replaces every binding of the function object in every loaded
``bbl`` module; methods are replaced on their class.  Spans stay in memory
until the run ends.  Hot leaf functions are counted, not spanned: a span
records the counter values at its start and end, so counts inside a span
are exact without a span per leaf call.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

# Counted leaves: (counter name, module, qualified name).
COUNTED = (
    ("beliefs.value_array", "bbl.beliefs", "ConsumptionUtility.value_array"),
    ("preferences.loss_multiplier", "bbl.preferences", "loss_multiplier"),
    ("preferences.gain_loss", "bbl.preferences", "gain_loss"),
)


def _len(result) -> dict:
    return {"rows": len(result)}


def _nodes(result) -> dict:
    return {"nodes": len(result[0])}


def _solution(result) -> dict:
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _simplex_points(args, kwargs) -> dict:
    lottery = args[0]
    step = args[2] if len(args) > 2 else kwargs.get("step", 0.01)
    steps = int(round(1.0 / step))
    return {"points": comb(steps + lottery.size - 1, lottery.size - 1)}


# Spanned functions: (span name, module, qualified name, result hook, argument hook).
SPANNED = (
    ("preferences.cutoff_probability", "bbl.preferences", "cutoff_probability", None, None),
    ("preferences.eta_for_cutoff", "bbl.preferences", "eta_for_cutoff", None, None),
    ("preferences.from_dict", "bbl.preferences", "Preferences.from_dict", None, None),
    ("beliefs.from_dict", "bbl.beliefs", "DiscreteLottery.from_dict", None, None),
    ("beliefs.utility_from_dict", "bbl.beliefs", "ConsumptionUtility.from_dict", None, None),
    ("beliefs.solve_optimal_beliefs", "bbl.beliefs", "solve_optimal_beliefs", None, None),
    ("beliefs.general_residual_solve", "bbl.beliefs", "general_residual_solve", None, None),
    ("beliefs.canonical_beliefs", "bbl.beliefs", "canonical_beliefs", None, None),
    ("beliefs.total_utility", "bbl.beliefs", "total_utility", None, None),
    ("beliefs.gain_probability", "bbl.beliefs", "gain_probability", None, None),
    ("timing.timing_preference", "bbl.timing", "timing_preference", None, None),
    ("timing.utility_early", "bbl.timing", "utility_early", None, None),
    ("timing.utility_wait", "bbl.timing", "utility_wait", None, None),
    ("distributions.from_dict", "bbl.distributions", "ContinuousDistribution.from_dict", None, None),
    ("distributions.cdf", "bbl.distributions", "ContinuousDistribution.cdf", None, None),
    ("distributions.quantile", "bbl.distributions", "ContinuousDistribution.quantile", None, None),
    ("distributions.mean", "bbl.distributions", "ContinuousDistribution.mean", None, None),
    ("distributions.quad_nodes", "bbl.distributions", "ContinuousDistribution.quad_nodes", _nodes, None),
    ("distributions.subjective_expectation", "bbl.distributions", "subjective_expectation", None, None),
    ("distributions.partial_expectation", "bbl.distributions", "partial_expectation", None, None),
    ("distributions.naive_value", "bbl.distributions", "naive_value", None, None),
    ("distributions.sophisticated_value", "bbl.distributions", "sophisticated_value", None, None),
    ("distributions.compare", "bbl.distributions", "compare", None, None),
    ("equilibrium.sweep", "bbl.equilibrium", "sweep", _len, None),
    ("equilibrium.sweep_thresholds", "bbl.equilibrium", "sweep_thresholds", None, None),
    ("equilibrium.naive_price", "bbl.equilibrium", "naive_price", None, None),
    ("equilibrium.sophisticated_price", "bbl.equilibrium", "sophisticated_price", None, None),
    ("equilibrium.write_sweep_csv", "bbl.equilibrium", "write_sweep_csv", None, None),
    ("portfolio.asset_from_dict", "bbl.portfolio", "Asset.from_dict", None, None),
    ("portfolio.rational_alpha", "bbl.portfolio", "rational_alpha", _solution, None),
    ("portfolio.naive_alpha", "bbl.portfolio", "naive_alpha", _solution, None),
    ("portfolio.sophisticated_alpha", "bbl.portfolio", "sophisticated_alpha", _solution, None),
    ("portfolio.rational_objective", "bbl.portfolio", "rational_objective", None, None),
    ("portfolio.sophisticated_objective", "bbl.portfolio", "sophisticated_objective", None, None),
    ("portfolio.naive_fixed_objective", "bbl.portfolio", "naive_fixed_objective", None, None),
    ("oracles.grid_search_beliefs", "bbl.oracles", "grid_search_beliefs", None, _simplex_points),
    ("oracles.grid_search_alpha", "bbl.oracles", "grid_search_alpha", None, None),
    ("oracles.simpson_integral", "bbl.oracles", "simpson_integral", None, None),
    ("cli.run", "bbl.cli", "run", None, None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: object
    counts_start: tuple
    counts_end: tuple = ()
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the current operation."""

    def __init__(self, counted=()):
        self.counted = tuple(counted)
        self.counts = [0] * len(self.counted)
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []

    def span_wrapper(self, name, fn, on_result=None, on_args=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                        tuple(tracer.counts))
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.counts_end = tuple(tracer.counts)
            if on_result is not None:
                span.extra.update(on_result(result))
            if on_args is not None:
                span.extra.update(on_args(args, kwargs))
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts
        slot = self.counted.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, raw attribute value) for a module function or class method."""
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Patch:
    """Installs a tracer's wrappers on every binding, and restores the originals."""

    def __init__(self, tracer: Tracer, spanned=SPANNED, counted=COUNTED):
        self.tracer = tracer
        self.spanned = spanned
        self.counted = counted
        self._undo: list[tuple[object, str, object]] = []

    def _install(self, module_name: str, qualname: str, make):
        owner, attr, raw = _resolve(module_name, qualname)
        if isinstance(owner, type):
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = make(fn)
            self._set(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            return
        wrapped = make(raw)
        for mod in [m for name, m in sys.modules.items() if name == "bbl" or name.startswith("bbl.")]:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        tracer = self.tracer
        for name, module_name, qualname in self.counted:
            self._install(module_name, qualname,
                          lambda fn, name=name: tracer.count_wrapper(name, fn))
        for name, module_name, qualname, on_result, on_args in self.spanned:
            if module_name in sys.modules:
                self._install(module_name, qualname,
                              lambda fn, name=name, r=on_result, a=on_args:
                              tracer.span_wrapper(name, fn, r, a))
        return tracer

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def new_tracer() -> Tracer:
    return Tracer(name for name, _, _ in COUNTED)
