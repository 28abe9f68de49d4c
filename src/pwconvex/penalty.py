"""Penalty recovery for proximal-type operators (unit step size).

An operator T whose graph sits inside the graph of a proximal map
determines the penalty up to an additive constant: extend T to a
maximal monotone operator, antidifferentiate, conjugate, and subtract
the quadratic.  The result is in general only weakly convex (adding
x^2/2 back restores convexity), so the constructor runs with relaxed
piece classification.

verify_penalty goes the other way and never raises on a bad claim: it
rebuilds the proximal map of the candidate penalty through the
subdifferential of f + x^2/2 and measures how far sampled graph points
of T fall from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import numeric
from .conv import _shift_by, conjugate, integ
from .errors import NonConvex
from .expr import Div, Mul, Neg, X, as_expr
from .monop import (
    MonotoneOperator,
    SetValue,
    eval_op,
    invert,
    maximal_extension,
    subdifferential,
)
from .oracle import DEFAULT_SEED, sample_graph
from .pwf import PiecewiseFunction

INF = math.inf

HALF_SQUARE = Div(Mul(X, X), as_expr(2))


def recover_penalty(T: MonotoneOperator) -> PiecewiseFunction:
    """Penalty f with the graph of T inside the graph of the proximal
    map of f at unit step.

    Pipeline: maximal extension, antiderivative, conjugate, minus the
    quadratic.  No anchoring is applied to the antiderivative; the
    left-to-right stitching fixes the additive constant, which the
    proximal map ignores anyway.
    """
    h = integ(maximal_extension(T))
    g = conjugate(h)
    return _shift_by(g, Neg(HALF_SQUARE), weakly_convex=True)


@dataclass(frozen=True)
class PenaltyReport:
    """Outcome of a penalty verification run."""

    passed: bool
    max_violation: float
    samples: int
    witness: tuple[float, float] | None = None
    reason: str | None = None


def _set_distance(v: SetValue, u: float, binding: dict) -> float:
    if v.tag == "empty":
        return INF
    if v.tag == "all":
        return 0.0
    lo, hi = numeric.value(v.lo, binding), numeric.value(v.hi, binding)
    if u < lo:
        return lo - u
    if u > hi:
        return u - hi
    return 0.0


def verify_penalty(
    T: MonotoneOperator,
    f: PiecewiseFunction,
    n: int = 500,
    tol: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> PenaltyReport:
    """Check that sampled graph points of T land in the graph of the
    proximal map of f.  Failures are reported, not raised."""
    try:
        g = _shift_by(f, HALF_SQUARE, weakly_convex=False)
    except NonConvex as exc:
        return PenaltyReport(False, INF, 0, reason=f"f plus the quadratic is not convex: {exc}")
    P = invert(subdifferential(g))
    binding = numeric.binding(T.env)
    pts = sample_graph(T, n, random.Random(seed))
    worst = 0.0
    witness = None
    for x, u in pts:
        d = _set_distance(eval_op(P, x, params=binding or None), u, binding)
        if d > worst:
            worst, witness = d, (x, u)
    passed = worst <= tol
    return PenaltyReport(passed, worst, len(pts), None if passed else witness)
