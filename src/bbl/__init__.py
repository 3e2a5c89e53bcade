"""Optimal biased beliefs for loss-averse, reference-dependent agents.

Solvers for the belief-distortion objective over discrete and continuous
lotteries, an information-timing comparison, portfolio choice for rational,
naive and sophisticated agents, and homogeneous-investor equilibrium
pricing, all backed by brute-force oracles.
"""

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
from .oracles import grid_search_alpha, grid_search_beliefs, simpson_integral
from .portfolio import (
    Asset,
    PortfolioSolution,
    certainty_equivalent_excess,
    naive_alpha,
    rational_alpha,
    sophisticated_alpha,
)
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
