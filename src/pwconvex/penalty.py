"""Penalty recovery for proximal-type operators (unit step size).

An operator T whose graph sits inside the graph of a proximal map
determines the penalty up to an additive constant: antidifferentiate
(which fills every gap of T, so the result's subdifferential is the
maximal extension of T), conjugate, and subtract the quadratic.  The
penalty is returned in T's variable.  It is in general only weakly
convex (adding x^2/2 back restores convexity): a weakly convex grid.

verify_penalty goes the other way and never raises on a bad claim: it
certifies the pieces of f + x^2/2 convex, as parsing would, then
rebuilds the proximal map of the candidate penalty through the
subdifferential of that sum and measures how far sampled graph points
of T fall from it.  It reads that map at the samples through one
``Grid.float_view``; a sample the view leaves to the exact reader (one
near a breakpoint) goes through ``eval_op``, once per distinct point.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace

from . import numeric
from .conv import _shift_by, conjugate, integ
from .errors import NonConvex
from .expr import Div, Mul, Neg, X, as_expr
from .grid import certify
from .monop import (
    MonotoneOperator,
    SetValue,
    eval_op,
    invert,
    subdifferential,
)
from .oracle import DEFAULT_SEED, sample_graph
from .pwf import PiecewiseFunction, classify_piece

INF = math.inf

HALF_SQUARE = Div(Mul(X, X), as_expr(2))
# graph points verify_penalty samples, and the distance it tolerates
VERIFY_SAMPLES = 500
VERIFY_TOL = 1e-9


def recover_penalty(T: MonotoneOperator) -> PiecewiseFunction:
    """Penalty f with the graph of T inside the graph of the proximal
    map of f at unit step.

    Pipeline: antiderivative, conjugate, minus the quadratic, in T's
    variable.  The antiderivative integrates the maximal extension of T
    already, as it fills every gap.  No anchoring is applied to it; the
    left-to-right stitching fixes the additive constant, which the
    proximal map ignores anyway.
    """
    g = conjugate(integ(T))
    return replace(_shift_by(g, Neg(HALF_SQUARE), weakly_convex=True), varname=T.varname)


@dataclass(frozen=True)
class PenaltyReport:
    """Outcome of a penalty verification run."""

    passed: bool
    max_violation: float
    samples: int
    witness: tuple[float, float] | None = None
    reason: str | None = None


def _float_bounds(v: SetValue, binding) -> tuple[float, float] | None:
    """The ends of v as floats at the binding; None for the empty set."""
    ends = v.bounds()
    return None if ends is None else (numeric.value(ends[0], binding), numeric.value(ends[1], binding))


def _distance(bounds: tuple[float, float] | None, u: float) -> float:
    """How far u lies from the closed interval ``bounds`` (inf for None)."""
    if bounds is None:
        return INF
    lo, hi = bounds
    if u < lo:
        return lo - u
    if u > hi:
        return u - hi
    return 0.0


def verify_penalty(T: MonotoneOperator, f: PiecewiseFunction, seed: int = DEFAULT_SEED) -> PenaltyReport:
    """Check that sampled graph points of T land in the graph of the
    proximal map of f.  Failures are reported, not raised."""
    try:
        g = _shift_by(f, HALF_SQUARE, weakly_convex=False)
        certify(g.breakpoints, g.pieces, g.env, classify_piece, g.varname)
    except NonConvex as exc:
        return PenaltyReport(False, INF, 0, reason=f"f plus the quadratic is not convex: {exc}")
    P = invert(subdifferential(g))
    binding = numeric.binding(T.env)
    view = P.float_view(binding)
    exact = functools.cache(lambda x: _float_bounds(eval_op(P, x, params=binding or None), binding))
    pts = sample_graph(T, VERIFY_SAMPLES, random.Random(seed))
    worst = 0.0
    witness = None
    for x, u in pts:
        p = view.at(x)
        d = _distance(exact(x) if p is None else (p, p), u)
        if d > worst:
            worst, witness = d, (x, u)
    passed = worst <= VERIFY_TOL
    return PenaltyReport(passed, worst, len(pts), None if passed else witness)
