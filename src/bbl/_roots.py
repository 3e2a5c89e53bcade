"""The package's one scalar root-finder: Brent's (1973) method on a sign-change bracket."""

from __future__ import annotations

import math
import sys

_ROOT_X_TOL = 1e-12
_EPS = sys.float_info.epsilon


def _brent_root(fn, a: float, fa: float, b: float, fb: float, xtol: float = _ROOT_X_TOL):
    """Root of ``fn`` between ``a`` and ``b``, where ``fa`` and ``fb`` differ in sign.

    Brent's (1973) method: inverse quadratic or secant steps, with a bisection
    step whenever they would not shrink the bracket fast enough.  Returns
    (x, fn(x)) with x within ``xtol`` of a sign change.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if fb * fc > 0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, fb
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fn(b)

