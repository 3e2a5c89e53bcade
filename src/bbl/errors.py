"""Exception types shared across the package, and the finiteness check on inputs."""

import math


class DomainError(ValueError):
    """A quantity left the mathematical domain it is defined on.

    Examples: log utility evaluated at nonpositive wealth, a tail-mass
    cutoff of 0 or 1 on an unbounded distribution, a certainty-equivalent
    request at a zero risky share.
    """


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge within its iteration cap."""


def _finite(name: str, x) -> float:
    """``x`` as a float; ValueError naming the field ``name`` when it is not a finite number.

    Range checks of the form ``x <= 0`` or ``abs(x - 1) > tol`` are false for
    NaN, so inputs pass through here before any such check.
    """
    try:
        value = float(x)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a finite number, got {x!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value}")
    return value
