"""Symbolic inversion of strictly monotone expressions on an interval.

The peeling pass handles every composition of affine maps, integer and
rational powers (including shifted powers like c*(x - r)^n + d), exp
and ln around a single occurrence of the variable.  Polynomials are
read by ``simplify.poly_coeffs``.  A power of a power is peeled one
layer at a time, each layer with the root branch of its own base, so
(x^2)^(1/2) inverts as |x| does.  An abs of the variable never arrives:
parsing splits it at its root (``grid.cover_bodies``).  Everything else
falls back to an implicit inverse, solved numerically.  Callers pass
strictly increasing expressions only: input pieces certified by
``check_strictly_monotone`` and the pieces the operator calculus builds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import numeric, poly
from .assumptions import AssumptionEnv
from .errors import DomainError, NotMonotone
from .expr import (
    Add,
    Const,
    Div,
    Exp,
    Expr,
    ImplicitInverse,
    Ln,
    Mul,
    Neg,
    Param,
    Pow,
    Sub,
    Var,
    X,
    ZERO,
    contains_var,
    to_text,
)
from .simplify import as_terms, exact_poly, poly_coeffs, simplify, structurally_equal

GUARD_CLIP = 1e10


def _sign_on_interval(f: Expr, env: AssumptionEnv, lo, hi) -> int | None:
    """Sign of f somewhere strictly inside (lo, hi); assumes f does not
    change sign there (caller guarantees monotone context)."""
    clipped = numeric.clip(env, lo, hi, GUARD_CLIP)
    if clipped is None:
        return None
    return numeric.sign(f, env, (0.5 * (clipped[0] + clipped[1]),)) or None


def _root_branch(t: Expr, q: Fraction, base_sign: int | None) -> Expr | None:
    """Solve u^q = t for u given the sign of u on the interval."""
    inv = Fraction(1) / q
    if q.numerator % 2 != 0:
        return Pow(t, inv)
    if base_sign is None:
        return None
    root = Pow(t, inv)
    return root if base_sign > 0 else Mul(Const(Fraction(-1)), root)


def _peel(e: Expr, target: Expr, env: AssumptionEnv, lo, hi) -> Expr | None:
    if isinstance(e, Var):
        return target
    poly = poly_coeffs(e)
    if poly:
        n = max(poly)
        if n == 0:
            return None
        a_n = poly[n]
        if n == 1:
            b = poly.get(0, ZERO)
            return Div(Sub(target, b), a_n)
        r = simplify(Div(poly.get(n - 1, ZERO), Mul(Const(Fraction(-n)), a_n)))
        shifted = Mul(a_n, Pow(Sub(X, r), Fraction(n)))
        d = numeric.body_at(e, r, env)
        if structurally_equal(e, Add(shifted, d)):
            t = Div(Sub(target, d), a_n)
            branch = _root_branch(t, Fraction(n), _sign_on_interval(Sub(X, r), env, lo, hi))
            if branch is None:
                return None
            return Add(r, branch)
        return None
    # single-shell extraction: exactly one summed term touches x, and
    # inside it exactly one factor does
    try:
        terms = as_terms(e)
    except DomainError:
        return None
    xterms = [(c, fs) for c, fs in terms if any(contains_var(f) for f, _ in fs)]
    if len(xterms) != 1:
        return None
    c0, factors = xterms[0]
    rest: Expr = ZERO
    for c, fs in terms:
        if (c, fs) == xterms[0]:
            continue
        part: Expr = Const(c)
        for f, q in fs:
            part = Mul(part, Pow(f, q) if q != 1 else f)
        rest = Add(rest, part)
    mult: Expr = Const(c0)
    shell = None
    shell_q = Fraction(1)
    for f, q in factors:
        if contains_var(f):
            if shell is not None:
                return None
            # one Pow layer per call, each with its own root branch:
            # (u^r)^q = u^(r*q) for every real u only when r has an odd
            # numerator, and (x^2)^(1/2) is |x|, not x
            if isinstance(f, Pow) and (q == 1 or f.exponent.numerator % 2):
                shell, shell_q = f.base, f.exponent * q
            else:
                shell, shell_q = f, q
        else:
            mult = Mul(mult, Pow(f, q) if q != 1 else f)
    if shell is None:
        return None
    t = simplify(Div(Sub(target, rest), mult))
    if shell_q != 1:
        t2 = _root_branch(t, shell_q, _sign_on_interval(shell, env, lo, hi))
        if t2 is None:
            return None
        return _peel_inner(shell, simplify(t2), env, lo, hi)
    return _peel_inner(shell, t, env, lo, hi)


def _peel_inner(shell: Expr, t: Expr, env: AssumptionEnv, lo, hi) -> Expr | None:
    if isinstance(shell, Var):
        return t
    if isinstance(shell, Exp):
        return _peel(shell.arg, Ln(t), env, lo, hi)
    if isinstance(shell, Ln):
        return _peel(shell.arg, Exp(t), env, lo, hi)
    return _peel(shell, t, env, lo, hi)


def _exact_end(v):
    """An end as an exact rational or +-inf, or None (parameters, floats,
    irrationals)."""
    if isinstance(v, float):
        return v if math.isinf(v) else None
    if isinstance(v, Const) and not isinstance(v.value, float):
        return v.value
    return None


def _polynomial_shape(e: Expr) -> bool:
    """Whether e has x only under sums, products, natural powers and
    numerators, never in a denominator, a root, exp, ln, abs or a
    numeric node.  A cheap filter in front of the sum map, which decides:
    refusing a transcendental body by its sum map costs about as much
    as sampling it."""
    if isinstance(e, (Const, Var, Param)):
        return True
    if isinstance(e, (Add, Sub, Mul)):
        return _polynomial_shape(e.left) and _polynomial_shape(e.right)
    if isinstance(e, Neg):
        return _polynomial_shape(e.arg)
    if isinstance(e, Div):
        return _polynomial_shape(e.left) and not contains_var(e.right)
    if isinstance(e, Pow):
        natural = e.exponent.denominator == 1 and e.exponent >= 0
        return _polynomial_shape(e.base) if natural else not contains_var(e.base)
    return not contains_var(e)


@lru_cache(maxsize=512)
def _derivative(body: Expr, k: int) -> tuple | Expr | None:
    """The k-th derivative of a polynomial body: its exact coefficients
    (a tuple, () for 0), or, when it is a constant with parameters, the
    coefficient of x^k in body, which has its sign.  None for any other
    body.  Kept: the same input body is certified again each time a text
    holding it is parsed, and parametric inputs repeat a few body shapes,
    so a few hundred entries hold most repeats."""
    q = exact_poly(body) if _polynomial_shape(body) else None
    if q is None:
        return None
    if q[k:] == [None]:
        return poly_coeffs(body)[k]
    return None if None in q[k:] else tuple(poly.derivative(q, k))


def derivative_signs(body: Expr, k: int, env: AssumptionEnv, lo, hi) -> dict | None:
    """The signs the k-th derivative of body takes on the open (lo, hi),
    each with a rational triple where it has that sign (``poly.signs``),
    or with None where the sign holds on the whole line; {} when that
    derivative is 0.  Exact for a polynomial body (``_derivative``):
    over Q, or by ``env.sign_of`` when the derivative is one coefficient
    with parameters.  An end that is not an exact rational counts only
    when the derivative keeps one sign on the whole line.  None where
    only sampling can tell."""
    d = _derivative(body, k)
    if d is None:
        return None
    if isinstance(d, Expr):
        s = env.sign_of(d)
        return {s: None} if s else None
    if not d:
        return {}
    ends = _exact_end(lo), _exact_end(hi)
    if None not in ends:
        return poly.signs(d, *ends)
    whole = poly.signs(d)
    return dict.fromkeys(whole) if len(whole) == 1 else None


def check_strictly_monotone(e: Expr, env: AssumptionEnv, lo, hi, varname: str = "x") -> int:
    """+1 when e increases on (lo, hi), -1 when it decreases.  A
    polynomial is decided exactly by the signs of its derivative
    (``derivative_signs``); a constant counts as increasing.  Any other
    body is sampled on Chebyshev nodes, and the steps between samples
    (``numeric.step``) must never disagree in sign: ties are tolerated
    (flat spots are resolved symbolically upstream).  A sign conflict
    raises NotMonotone.
    """
    exact = derivative_signs(e, 1, env, lo, hi)
    if exact is not None:
        if len(exact) == 2:
            raise NotMonotone(f"{to_text(e, varname)} is not monotone on the cell: its slope is positive"
                              f" at {varname} = {exact[1][1]}"
                              f" and negative at {varname} = {exact[-1][1]}")
        return -1 if -1 in exact else 1
    samples = numeric.sample(e, env, lo, hi, GUARD_CLIP)
    if samples is None:
        raise NotMonotone(f"cannot bound interval for monotonicity check of {to_text(e, varname)}")
    steps = set()
    prev = None
    for _, v in samples:
        if v is not None and prev is not None:
            steps.add(numeric.step(prev, v))
        prev = v
    if {1, -1} <= steps:
        raise NotMonotone(f"{to_text(e, varname)} is not monotone on the sampled interval")
    return -1 if -1 in steps else 1  # constant samples: treat as weakly increasing


def invert_monotone(e: Expr, env: AssumptionEnv, lo=-math.inf, hi=math.inf) -> Expr:
    """Inverse of a strictly increasing expression on the interval.

    The result is an expression in the same variable, now standing for
    the forward value.  Exact peeling is attempted first, then the
    implicit inverse; monotonicity is the caller's to certify.
    """
    s = simplify(e)
    if isinstance(s, ImplicitInverse):
        # inverting an inverse recovers the stored forward map
        return simplify(s.forward)
    inv = _peel(s, X, env, lo, hi)
    if inv is not None:
        return simplify(inv)
    return ImplicitInverse(s, lo, hi)


def solve_monotone(e: Expr, value: Expr, env: AssumptionEnv, lo=-math.inf, hi=math.inf) -> Expr:
    """x with e(x) = value on the interval where e is strictly increasing."""
    return numeric.body_at(invert_monotone(e, env, lo, hi), value, env)
