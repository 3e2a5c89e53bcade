"""Preference between receiving a fully revealing signal early or waiting.

With an early (always correct) signal the gain-loss feelings are resolved
in period 1 and are weighted by the subjective beliefs themselves, scaled
by ``gamma``; without it they arrive in period 2 weighted by the objective
probabilities.  The verdict compares the two totals at the agent's optimal
beliefs: :func:`timing_preference` checks the solver's ``q`` once, sums its
expectation ``E_q`` once, and takes the waiting total from the solver
whenever ``E_q`` is the solver's own expectation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

from .beliefs import (
    DiscreteLottery,
    _check_belief_vector,
    _utility_at_expectation,
    solve_optimal_beliefs,
    total_utility,
)
from .preferences import _VERDICT_TOL, INDIFFERENT, Preferences, _verdict, gain_loss

__all__ = ["TimingVerdict", "utility_early", "utility_wait", "timing_preference",
           "EARLY", "WAIT", "INDIFFERENT"]

EARLY = "early"
WAIT = "wait"


@dataclass(frozen=True)
class TimingVerdict:
    """Both utilities at the optimal beliefs and their verdict; ``tolerance`` is the class-wide tie width."""

    u_early: float
    u_wait: float
    verdict: str
    tolerance: ClassVar[float] = _VERDICT_TOL

    def to_dict(self) -> dict:
        return asdict(self)


def _early(lottery: DiscreteLottery, q: tuple[float, ...], prefs: Preferences) -> tuple[float, float]:
    """``(E_q, u_early)`` for a belief vector ``q`` already checked by ``_check_belief_vector``."""
    u = lottery.utilities
    expectation = math.fsum(qs * us for qs, us in zip(q, u))
    prospective = math.fsum(qs * gain_loss(us - expectation, prefs) for qs, us in zip(q, u))
    return expectation, expectation + prefs.gamma * prefs.eta * prospective


def utility_early(lottery: DiscreteLottery, q, prefs: Preferences) -> float:
    """Expected total utility when the signal arrives before realization."""
    return _early(lottery, _check_belief_vector(lottery, q), prefs)[1]


def utility_wait(lottery: DiscreteLottery, q, prefs: Preferences) -> float:
    """Expected total utility without the early signal (realization-period gain-loss)."""
    return total_utility(lottery, q, prefs)


def timing_preference(lottery: DiscreteLottery, prefs: Preferences) -> TimingVerdict:
    """Early/wait verdict at the agent's canonical optimal beliefs.

    The solver's ``q`` is checked once and its expectation ``E_q`` summed
    once; both utilities equal :func:`utility_early` and :func:`utility_wait`
    at that ``q`` exactly.  ``u_wait`` is the solver's ``total_utility`` when
    ``E_q`` equals its ``subjective_expectation`` (the solver computes it at
    that expectation by the same formula), and is computed at ``E_q`` otherwise.
    """
    solution = solve_optimal_beliefs(lottery, prefs)
    expectation, u_early = _early(lottery, _check_belief_vector(lottery, solution.q), prefs)
    if expectation == solution.subjective_expectation:
        u_wait = solution.total_utility
    else:
        u_wait = _utility_at_expectation(lottery, expectation, prefs)
    return TimingVerdict(u_early=u_early, u_wait=u_wait, verdict=_verdict(u_early - u_wait, EARLY, WAIT))
