"""Preference between receiving a fully revealing signal early or waiting.

With an early (always correct) signal the gain-loss feelings are resolved
in period 1 and are weighted by the subjective beliefs themselves, scaled
by ``gamma``; without it they arrive in period 2 weighted by the objective
probabilities.  The verdict compares the two totals at the agent's optimal
beliefs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

from .beliefs import DiscreteLottery, _check_belief_vector, solve_optimal_beliefs, total_utility
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


def utility_early(lottery: DiscreteLottery, q, prefs: Preferences) -> float:
    """Expected total utility when the signal arrives before realization."""
    q = _check_belief_vector(lottery, q)
    u = lottery.utilities
    expectation = math.fsum(qs * us for qs, us in zip(q, u))
    prospective = math.fsum(qs * gain_loss(us - expectation, prefs) for qs, us in zip(q, u))
    return expectation + prefs.gamma * prefs.eta * prospective


def utility_wait(lottery: DiscreteLottery, q, prefs: Preferences) -> float:
    """Expected total utility without the early signal (realization-period gain-loss)."""
    return total_utility(lottery, q, prefs)


def timing_preference(lottery: DiscreteLottery, prefs: Preferences) -> TimingVerdict:
    """Early/wait verdict at the agent's canonical optimal beliefs."""
    solution = solve_optimal_beliefs(lottery, prefs)
    u_early = utility_early(lottery, solution.q, prefs)
    u_wait = utility_wait(lottery, solution.q, prefs)
    return TimingVerdict(u_early=u_early, u_wait=u_wait, verdict=_verdict(u_early - u_wait, EARLY, WAIT))
