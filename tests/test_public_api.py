"""The public surface: the package's exported names, pinned so that any addition or
removal shows in a diff, and the records whose fields are part of it."""

import dataclasses
import importlib
import pkgutil

import pytest

import bbl
from bbl import ComparisonResult, TimingVerdict

PUBLIC = [
    "Asset",
    "BeliefSolution",
    "ComparisonResult",
    "ConsumptionUtility",
    "ContinuousDistribution",
    "DiscreteLottery",
    "DomainError",
    "EquilibriumPoint",
    "GainLossSpec",
    "NormalComponent",
    "PortfolioSolution",
    "Preferences",
    "TimingVerdict",
    "canonical_beliefs",
    "certainty_equivalent_excess",
    "compare",
    "cutoff_probability",
    "default_grid",
    "eta_for_cutoff",
    "gain_loss",
    "gain_probability",
    "general_residual_solve",
    "grid_search_alpha",
    "grid_search_beliefs",
    "loss_multiplier",
    "naive_alpha",
    "naive_price",
    "naive_value",
    "partial_expectation",
    "partial_expectation_closed_form",
    "rational_alpha",
    "simpson_integral",
    "solve_optimal_beliefs",
    "sophisticated_alpha",
    "sophisticated_price",
    "sophisticated_value",
    "subjective_expectation",
    "sweep",
    "sweep_thresholds",
    "timing_preference",
    "total_utility",
    "utility_early",
    "utility_wait",
    "write_sweep_csv",
]

MODULES = [importlib.import_module(f"bbl.{m.name}") for m in pkgutil.iter_modules(bbl.__path__)
           if not m.name.startswith("_")]


def test_package_exports_are_pinned():
    assert sorted(bbl.__all__) == PUBLIC


@pytest.mark.parametrize("module", [bbl, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_names_come_from_a_module():
    exported = set().union(*(m.__all__ for m in MODULES))
    assert sorted(set(bbl.__all__) - exported) == []


@pytest.mark.parametrize("record,values", [
    (ComparisonResult, {"value_a": 1.0, "value_b": 2.0, "verdict": "prefer_b"}),
    (TimingVerdict, {"u_early": 1.0, "u_wait": 2.0, "verdict": "wait"}),
])
def test_verdict_tolerance_is_not_a_field(record, values):
    result = record(**values)
    assert result.tolerance == 1e-10
    assert result.to_dict() == values
    assert [f.name for f in dataclasses.fields(result)] == list(values)
    with pytest.raises(TypeError):
        record(**values, tolerance=0.5)
