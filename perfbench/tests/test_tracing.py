import pytest

import bbl
import bbl.beliefs
import bbl.cli
import bbl.preferences
import tracing
from tracing import Patch, Span, Tracer, new_tracer, self_times


def span(name, start, end, parent):
    return Span(name, start, end, parent, None, ())


def test_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("c", 5.5, 7.0, 0),  # overlaps b: the union is covered once
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 1.0, 1.5])


def test_wrapper_replaces_every_binding_and_restores_it():
    original = bbl.preferences.loss_multiplier
    solve = bbl.beliefs.solve_optimal_beliefs
    quantile = bbl.ContinuousDistribution.quantile
    holders = [m for m in (bbl, bbl.beliefs, bbl.preferences) if vars(m).get("loss_multiplier") is original]
    assert len(holders) == 3
    tracer = new_tracer()
    with Patch(tracer):
        for module in holders:
            assert module.loss_multiplier is not original
            assert module.loss_multiplier is bbl.preferences.loss_multiplier
        assert bbl.cli.solve_optimal_beliefs is bbl.beliefs.solve_optimal_beliefs is not solve
        assert bbl.ContinuousDistribution.quantile is not quantile
        dist = bbl.ContinuousDistribution.from_dict({"normal": {"mean": 0.0, "sd": 1.0}})
        assert dist.quantile(0.5) == pytest.approx(0.0, abs=1e-9)
    for module in holders:
        assert module.loss_multiplier is original
    assert bbl.cli.solve_optimal_beliefs is solve
    assert bbl.ContinuousDistribution.quantile is quantile
    names = [s.name for s in tracer.spans]
    assert names[0] == "distributions.from_dict"
    assert "distributions.quantile" in names and "distributions.cdf" in names


def test_counts_inside_a_span():
    prefs = bbl.Preferences.from_dict({"eta": 0.7, "lambda": 2.25,
                                       "gain_loss": {"kind": "general", "beta": 1.0, "kappa": 2.0}})
    lottery = bbl.DiscreteLottery.from_dict({"payoffs": [0, 1, 2, 4], "probs": [0.1, 0.2, 0.3, 0.4]})
    tracer = new_tracer()
    with Patch(tracer):
        bbl.solve_optimal_beliefs(lottery, prefs)
    solve = [s for s in tracer.spans if s.name == "beliefs.general_residual_solve"]
    assert len(solve) == 1
    slot = tracer.counted.index("preferences.loss_multiplier")
    inside = solve[0].counts_end[slot] - solve[0].counts_start[slot]
    assert inside == tracer.counts[slot] > 0
    assert solve[0].parent >= 0 and tracer.spans[solve[0].parent].name == "beliefs.solve_optimal_beliefs"


def test_every_traced_name_resolves():
    import sys

    for _, module, qualname, *_ in tracing.SPANNED + tracing.COUNTED:
        owner, attr, raw = tracing._resolve(module, qualname)
        assert callable(getattr(owner, attr)), (module, qualname)
    assert "bbl.cli" in sys.modules


def test_span_wrapper_records_parent_and_op():
    tracer = Tracer()
    inner = tracer.span_wrapper("inner", lambda: 1)
    outer = tracer.span_wrapper("outer", lambda: inner() + 1)
    tracer.op = 7
    assert outer() == 2
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [("outer", -1, 7), ("inner", 0, 7)]
