"""Optimal biased beliefs for loss-averse, reference-dependent agents.

Solvers for the belief-distortion objective over discrete and continuous
lotteries, an information-timing comparison, portfolio choice for rational,
naive and sophisticated agents, and homogeneous-investor equilibrium
pricing, all backed by brute-force oracles.

``import bbl`` loads no numpy.  ``portfolio`` and ``oracles`` import it at
their top, so they and their nine exported names are resolved on access,
through the module ``__getattr__`` (PEP 562).  numpy loads at the first such
access, or at the first array or quadrature path of ``beliefs`` or
``distributions``.
"""

import importlib

from .beliefs import (
    BeliefSolution,
    ConsumptionUtility,
    DiscreteLottery,
    canonical_beliefs,
    gain_probability,
    general_residual_solve,
    solve_optimal_beliefs,
    total_utility,
)
from .distributions import (
    ComparisonResult,
    ContinuousDistribution,
    NormalComponent,
    compare,
    naive_value,
    partial_expectation,
    partial_expectation_closed_form,
    sophisticated_value,
    subjective_expectation,
)
from .equilibrium import (
    EquilibriumPoint,
    default_grid,
    naive_price,
    sophisticated_price,
    sweep,
    sweep_thresholds,
    write_sweep_csv,
)
from .errors import DomainError
from .preferences import (
    GainLossSpec,
    Preferences,
    cutoff_probability,
    eta_for_cutoff,
    gain_loss,
    loss_multiplier,
)
from .timing import TimingVerdict, timing_preference, utility_early, utility_wait

__version__ = "0.1.0"

# The module of each lazily exported name, and the two modules themselves.  Nothing is
# cached here: every access reads the module's current binding, so a patch of that
# binding is seen through ``bbl`` too, and leaves nothing behind once undone.
_LAZY = {"portfolio": "portfolio", "oracles": "oracles",
         **dict.fromkeys(("Asset", "PortfolioSolution", "certainty_equivalent_excess", "naive_alpha",
                          "rational_alpha", "sophisticated_alpha"), "portfolio"),
         **dict.fromkeys(("grid_search_alpha", "grid_search_beliefs", "simpson_integral"), "oracles")}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)

__all__ = [
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
