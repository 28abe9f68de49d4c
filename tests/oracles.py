"""Brute-force cross-checks of conjugation, the proximal map and the
implicit-inverse solver.

The first two read the input function only through ``eval_pwf`` at
float points and share no code with the symbolic paths they check: no
``conjugate``, ``prox``, ``subdifferential`` or ``invert``.  One
golden-section search serves both, on the whole line or between the
walls of a function that is +inf outside an interval, as

    f*(y) = -min_x (f(x) - y*x)    and    prox_f(x) = argmin_u f(u) + (u - x)^2/2.

``bisect_root`` is plain bisection on a Python float function, with no
library code at all, against which the Newton solver of
``ImplicitInverse`` is checked.

Keep it that way; the differential tests lose their teeth otherwise.
"""

from __future__ import annotations

import math

from pwconvex import eval_pwf

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
MAX_STEPS = 200
#: the search stops when the bracket is this narrow, relative to 1 + |x|
TOL = 1e-12


def minimize(phi, start: float, lo: float = -math.inf, hi: float = math.inf) -> tuple[float, float]:
    """(argmin, min) of a convex phi on [lo, hi], finite there (at a
    finite end too), that attains its minimum; start lies in [lo, hi].

    A bracket a < c < b with phi(c) no larger than at either end grows by
    doubling steps, or until it meets an end where phi still falls, then
    golden-section search shrinks it.  The point returned is the best
    one read, so the minimum is an upper bound on the true one up to
    rounding in phi.
    """
    step = 1.0
    a, c, b = max(start - step, lo), start, min(start + step, hi)
    fa, fc, fb = phi(a), phi(start), phi(b)
    for _ in range(MAX_STEPS):
        if fa >= fc <= fb or (fa < fc and a == lo) or (fb < fc and b == hi):
            break
        step *= 2.0
        if fa < fc:
            a, c, b, fc, fb = max(a - step, lo), a, c, fa, fc
            fa = phi(a)
        else:
            a, c, b, fa, fc = c, b, min(b + step, hi), fc, fb
            fb = phi(b)
    else:
        raise AssertionError(f"no minimizer bracketed from {start}")
    best = min((c, fc), (a, fa), (b, fb), key=lambda t: t[1])
    u1, u2 = b - INVPHI * (b - a), a + INVPHI * (b - a)
    p1, p2 = phi(u1), phi(u2)
    for _ in range(MAX_STEPS):
        best = min(best, (u1, p1), (u2, p2), key=lambda t: t[1])
        if b - a <= TOL * (1.0 + abs(best[0])):
            break
        if p1 <= p2:
            b, u2, p2 = u2, u1, p1
            u1 = b - INVPHI * (b - a)
            p1 = phi(u1)
        else:
            a, u1, p1 = u1, u2, p2
            u2 = a + INVPHI * (b - a)
            p2 = phi(u2)
    return best


def _at(f, x: float) -> float:
    return float(eval_pwf(f, x))


def brute_conjugate(f, y: float, lo: float = -math.inf, hi: float = math.inf) -> float:
    """f*(y) as -min_x (f(x) - y*x), for f finite on [lo, hi] and +inf
    outside it."""
    return -minimize(lambda x: _at(f, x) - y * x, min(max(0.0, lo), hi), lo, hi)[1]


def brute_prox(f, x: float) -> float:
    """argmin_u f(u) + (u - x)^2/2, for f finite on the whole line."""
    return minimize(lambda u: _at(f, u) + (u - x) ** 2 / 2.0, x)[0]


def bisect_root(f, target: float, a: float, b: float) -> float:
    """The crossing of target by the increasing f in [a, b], where
    f(a) <= target <= f(b): the bracket halves until its midpoint is one
    of its ends, so the result is within an ulp of where the float f
    crosses."""
    while True:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            return mid
        a, b = (mid, b) if f(mid) < target else (a, mid)
