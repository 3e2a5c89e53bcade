"""Exception types shared across the package, and the checks on inputs: finiteness and JSON fields."""

import math

__all__ = ["DomainError"]


class DomainError(ValueError):
    """A quantity left the mathematical domain it is defined on.

    Examples: log utility evaluated at nonpositive wealth, a tail-mass
    cutoff of 0 or 1 on an unbounded distribution, a certainty-equivalent
    request at a zero risky share.
    """


def _finite(name: str, x) -> float:
    """``x`` as a float; ValueError naming the field ``name`` when it is not a finite number.

    Range checks of the form ``x <= 0`` or ``abs(x - 1) > tol`` are false for
    NaN, so inputs pass through here before any such check.
    """
    try:
        value = float(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a finite number, got {x!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value}")
    return value


def _finite_tuple(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each checked by ``_finite`` as ``name[i]``."""
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a list of numbers, got {values!r}") from None
    return tuple(_finite(f"{name}[{i}]", v) for i, v in enumerate(items))


def _fields(where: str, obj, *keys) -> list:
    """The values of ``keys`` in the JSON object ``obj``; ValueError naming ``where``
    when ``obj`` is not an object or lacks one of the keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
    return [obj[key] for key in keys]
