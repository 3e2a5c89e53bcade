"""Agent preference parameters and the gain-loss utility function.

An agent is described by the weight ``eta`` placed on gain-loss utility,
a loss-aversion coefficient ``lambda0``, a weight ``gamma`` on prospective
gain-loss feelings (used by the information-timing comparison), and a
gain-loss specification.  Two gain-loss families are supported:

* ``linear``  -- gains count one-for-one, losses are scaled by ``lambda0``;
* ``general`` -- constant marginal utility ``beta`` on gains, and a
  loss-size-dependent multiplier ``lambda(x) = 1 + (lambda0-1)(1-exp(-kappa*x))``
  on the marginal disutility of a loss of size ``x``.

The cutoff probability derived from ``(eta, lambda0)`` separates lotteries
for which inflating one's expectation pays off from those for which
deflating it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _fields, _finite

__all__ = [
    "GainLossSpec",
    "Preferences",
    "cutoff_probability",
    "eta_for_cutoff",
    "gain_loss",
    "loss_multiplier",
]

LINEAR = "linear"
GENERAL = "general"

INDIFFERENT = "indifferent"
_VERDICT_TOL = 1e-10  # two values this close or closer are a tie


@dataclass(frozen=True)
class GainLossSpec:
    """Shape of the gain-loss utility.

    ``beta`` and ``kappa`` only matter for the ``general`` kind: ``beta`` is
    the constant marginal utility of a gain, ``kappa`` the rate (per payoff
    unit) at which the loss multiplier rises from 1 toward ``lambda0``.
    """

    kind: str = LINEAR
    beta: float = 1.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (LINEAR, GENERAL):
            raise ValueError(f"gain_loss.kind must be 'linear' or 'general', got {self.kind!r}")
        if self.kind == GENERAL:
            object.__setattr__(self, "beta", _finite("gain_loss.beta", self.beta))
            object.__setattr__(self, "kappa", _finite("gain_loss.kappa", self.kappa))
            if not self.beta > 0:
                raise ValueError(f"gain_loss.beta must be positive, got {self.beta}")
            if not self.kappa > 0:
                raise ValueError(f"gain_loss.kappa must be positive, got {self.kappa}")

    @classmethod
    def linear(cls) -> "GainLossSpec":
        return cls(LINEAR)

    @classmethod
    def general(cls, beta: float, kappa: float) -> "GainLossSpec":
        return cls(GENERAL, beta=beta, kappa=kappa)

    @classmethod
    def from_dict(cls, obj: dict) -> "GainLossSpec":
        _fields("gain_loss", obj)
        kind = obj.get("kind", LINEAR)
        if kind == LINEAR:
            return cls.linear()
        if kind == GENERAL:
            return cls.general(*_fields("gain_loss", obj, "beta", "kappa"))
        raise ValueError(f"gain_loss.kind: unknown value {kind!r}")


@dataclass(frozen=True)
class Preferences:
    """Psychological parameters of a belief-choosing agent.

    ``gamma`` defaults to 1, the case in which prospective and realized
    gain-loss feelings are weighted equally.
    """

    eta: float
    lambda0: float
    gamma: float = 1.0
    gain_loss: GainLossSpec = GainLossSpec()

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", _finite("eta", self.eta))
        object.__setattr__(self, "lambda0", _finite("lambda", self.lambda0))
        object.__setattr__(self, "gamma", _finite("gamma", self.gamma))
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        _loss_aversion(self.lambda0)
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.gain_loss.kind == GENERAL and not self.eta * self.gain_loss.beta < 1:
            raise ValueError(
                f"eta*beta must be below 1 for the general gain-loss kind, "
                f"got {self.eta * self.gain_loss.beta}"
            )

    @classmethod
    def from_dict(cls, obj: dict) -> "Preferences":
        eta, lambda0 = _fields("preferences", obj, "eta", "lambda")
        spec = GainLossSpec.from_dict(obj["gain_loss"]) if "gain_loss" in obj else GainLossSpec.linear()
        return cls(
            eta=eta,
            lambda0=lambda0,
            gamma=obj.get("gamma", 1.0),
            gain_loss=spec,
        )


def cutoff_probability(prefs: Preferences) -> float:
    """Gain-mass threshold above which a higher expectation raises utility.

    Returns ``(eta*lambda - 1) / (eta*(lambda - 1))`` without clamping, so a
    caller can detect the always-optimistic regime ``eta < 1/lambda`` through
    a negative value.
    """
    return _cutoff(prefs.eta, prefs.lambda0)


def _cutoff(eta: float, lambda0: float) -> float:
    return (eta * lambda0 - 1.0) / (eta * (lambda0 - 1.0))


def _interior_cutoff(prefs: Preferences) -> float:
    """The cutoff of linear-kind ``prefs``; DomainError naming ``eta`` and ``lambda`` unless in (0, 1)."""
    if prefs.gain_loss.kind != LINEAR:
        raise ValueError(f"gain_loss.kind must be 'linear' for continuous beliefs, got {prefs.gain_loss.kind!r}")
    p_star = cutoff_probability(prefs)
    if not 0.0 < p_star < 1.0:
        raise DomainError(f"eta={prefs.eta} and lambda={prefs.lambda0} give the cutoff {p_star}, "
                          "outside (0, 1): it needs eta*lambda > 1 and eta < 1")
    return p_star


def eta_for_cutoff(p_star: float, lambda0: float) -> float:
    """Gain-loss weight that produces the given cutoff at fixed ``lambda0``."""
    p_star, lambda0 = _finite("p_star", p_star), _finite("lambda", lambda0)
    if not 0 <= p_star <= 1:
        raise ValueError(f"p_star must lie in [0, 1], got {p_star}")
    return _eta(p_star, _loss_aversion(lambda0))


def _loss_aversion(lambda0) -> float:
    """``lambda0`` as a float; ValueError naming ``lambda`` unless it is finite and exceeds 1."""
    lambda0 = _finite("lambda", lambda0)
    if not lambda0 > 1:
        raise ValueError(f"lambda must exceed 1, got {lambda0}")
    return lambda0


def _eta(p_star: float, lambda0: float) -> float:
    return 1.0 / (lambda0 - p_star * (lambda0 - 1.0))


def _verdict(diff: float, above: str, below: str) -> str:
    """``above`` or ``below`` by the sign of ``diff``; ``INDIFFERENT`` within ``_VERDICT_TOL``."""
    if abs(diff) <= _VERDICT_TOL:
        return INDIFFERENT
    return above if diff > 0 else below


def loss_multiplier(x: float, prefs: Preferences) -> float:
    """Multiplier on marginal disutility for a loss of size ``x >= 0``.

    Constant ``lambda0`` for the linear kind; rises smoothly from 1 at
    ``x = 0`` toward ``lambda0`` for the general kind.
    """
    if not x >= 0:
        raise ValueError(f"loss size must be nonnegative, got {x}")
    if prefs.gain_loss.kind == LINEAR:
        return prefs.lambda0
    return 1.0 + (prefs.lambda0 - 1.0) * (1.0 - math.exp(-prefs.gain_loss.kappa * x))


def gain_loss(x: float, prefs: Preferences) -> float:
    """Gain-loss utility of a deviation ``x`` from the reference point.

    Linear kind: ``x`` for gains, ``lambda0 * x`` for losses.  General kind:
    ``beta * x`` for gains; for losses the marginal disutility at distance
    ``t`` is ``beta * lambda(t)``, integrated in closed form.
    """
    spec = prefs.gain_loss
    if spec.kind == LINEAR:
        return x if x >= 0 else prefs.lambda0 * x
    if x >= 0:
        return spec.beta * x
    t = -x
    lam, kap = prefs.lambda0, spec.kappa
    # integral of beta*(1 + (lam-1)*(1 - exp(-kap*s))) over s in [0, t]
    return -spec.beta * (lam * t - (lam - 1.0) * (1.0 - math.exp(-kap * t)) / kap)
