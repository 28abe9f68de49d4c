"""Symbolic inversion of strictly monotone expressions on an interval.

The peeling pass handles every composition of affine maps, integer and
rational powers (including shifted powers like c*(x - r)^n + d), exp,
ln, and abs around a single occurrence of the variable.  Everything
else falls back to an implicit inverse, solved numerically, after a
numeric strict-monotonicity guardrail.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import numeric
from .assumptions import AssumptionEnv
from .errors import DomainError, NotMonotone
from .expr import (
    Abs,
    Add,
    Const,
    Div,
    Exp,
    Expr,
    ImplicitInverse,
    Ln,
    Mul,
    Number,
    Pow,
    Sub,
    Var,
    X,
    ZERO,
    contains_var,
    to_text,
)
from .simplify import as_terms, is_zero, simplify, structurally_equal

GUARD_CLIP = 1e10
# sampled values this many units in the last place apart count as equal:
# far out, a slope that flattens to +-1 wobbles in its last digit
TIE_ULPS = 4


def poly_coeffs(e: Expr) -> dict[int, Expr] | None:
    """Coefficients by degree when e is a polynomial in the variable
    with variable-free coefficients; None otherwise."""
    try:
        terms = as_terms(e)
    except DomainError:
        return None
    coeffs: dict[int, Expr] = {}
    for c, factors in terms:
        deg = 0
        parts: list[Expr] = [Const(c)]
        ok = True
        for f, q in factors:
            base, exp = f, q
            while isinstance(base, Pow):
                exp = exp * base.exponent
                base = base.base
            if isinstance(base, Var):
                if exp.denominator != 1 or exp < 0:
                    ok = False
                    break
                deg += int(exp)
            elif contains_var(base):
                ok = False
                break
            else:
                parts.append(Pow(f, q) if q != 1 else f)
        if not ok:
            return None
        coeff = parts[0]
        for p in parts[1:]:
            coeff = Mul(coeff, p)
        coeffs[deg] = simplify(Add(coeffs[deg], coeff)) if deg in coeffs else simplify(coeff)
    return {d: c for d, c in coeffs.items() if not is_zero(c)}


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
            base, exp = f, q
            while isinstance(base, Pow):
                exp = exp * base.exponent
                base = base.base
            shell, shell_q = base, exp
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
    if isinstance(shell, Abs):
        s = _sign_on_interval(shell.arg, env, lo, hi)
        if s is None:
            return None
        inner_t = t if s > 0 else Mul(Const(Fraction(-1)), t)
        return _peel(shell.arg, inner_t, env, lo, hi)
    return _peel(shell, t, env, lo, hi)


def check_strictly_monotone(e: Expr, env: AssumptionEnv, lo, hi) -> int:
    """Numeric guardrail: sample on Chebyshev nodes and insist the
    finite differences never disagree in sign.  Returns +1 or -1.
    Zeros, and differences within TIE_ULPS units in the last place, are
    tolerated (flat spots are resolved symbolically upstream); only an
    actual sign conflict raises NotMonotone.
    """
    samples = numeric.sample(e, env, lo, hi, GUARD_CLIP)
    if samples is None:
        raise NotMonotone(f"cannot bound interval for monotonicity check of {to_text(e)}")
    pos = neg = 0
    prev = None
    for _, v in samples:
        if v is None:
            prev = None
            continue
        if prev is not None:
            d = v - prev
            if math.isinf(d) or abs(d) > TIE_ULPS * math.ulp(max(abs(v), abs(prev))):
                if d > 0:
                    pos += 1
                else:
                    neg += 1
        prev = v
    if pos and neg:
        raise NotMonotone(f"{to_text(e)} is not monotone on the sampled interval")
    if not pos and not neg:
        return 1  # constant samples: treat as weakly increasing
    return 1 if pos else -1


def invert_monotone(e: Expr, env: AssumptionEnv, lo=-math.inf, hi=math.inf,
                    increasing: bool | None = None) -> Expr:
    """Inverse of a strictly monotone expression on the interval.

    The result is an expression in the same variable, now standing for
    the forward value.  Exact peeling is attempted first; the implicit
    fallback verifies monotonicity numerically before committing.
    """
    s = simplify(e)
    if isinstance(s, ImplicitInverse):
        # inverting an inverse recovers the stored forward map
        return simplify(s.forward)
    inv = _peel(s, X, env, lo, hi)
    if inv is not None:
        return simplify(inv)
    direction = check_strictly_monotone(s, env, lo, hi)
    if increasing is not None and (direction > 0) != increasing:
        raise NotMonotone(f"{to_text(s)} sampled {'decreasing' if direction < 0 else 'increasing'},"
                          f" expected the opposite")
    return ImplicitInverse(s, lo, hi, direction > 0)


def solve_monotone(e: Expr, value: Expr, env: AssumptionEnv, lo=-math.inf, hi=math.inf) -> Expr:
    """x with e(x) = value on the interval where e is strictly monotone."""
    return numeric.body_at(invert_monotone(e, env, lo, hi), value, env)
