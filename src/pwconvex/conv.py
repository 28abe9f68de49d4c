"""Antidifferentiation of operators and Fenchel conjugation.

integ rebuilds a convex function from a derivative-like operator:
symbolic antiderivatives piece by piece, constants stitched left to
right for continuity, affine connectors across interior gaps of the
domain, and numeric pieces when no elementary antiderivative exists.
A piece that is an implicit inverse g^-1 (the usual case in conjugate)
keeps an antiderivative G of g when one exists, and its values come
from the inverse-function rule [y*g^-1(y) - G(g^-1(y))] with one solve
each (Borwein & Hamilton, *Symbolic Fenchel conjugation*, Math.
Program. 116, 2009); any other piece is integrated by quadrature.
conjugate composes subdifferential -> invert -> integ and
fixes the additive constant with the Fenchel-Young equality at a
single graph point; the pointwise sup formula never enters (only the
brute-force cross-check in ``tests/oracles.py`` takes that route).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import numeric
from .assumptions import AssumptionEnv
from .errors import (
    ConstantPinFailure,
    EmptyOperator,
    InputError,
    InternalInconsistency,
    UnsupportedOperation,
)
from .expr import (
    Abs,
    Add,
    Div,
    Exp,
    Expr,
    ImplicitInverse,
    Ln,
    Mul,
    Neg,
    NumericIntegral,
    Pow,
    Sub,
    X,
    ZERO,
    as_expr,
    contains_var,
    is_numeric_node,
    map_children,
    parse_expr,
    to_text,
)
from .inverse import _sign_on_interval, poly_coeffs
from .limits import limit_at
from .monop import MonotoneOperator, eval_op, invert, subdifferential
from .pwf import PiecewiseFunction, build_function, domain
from .simplify import is_zero, simplify

INF = math.inf


# ---------------------------------------------------------------------------
# Elementary antiderivatives
# ---------------------------------------------------------------------------


def _affine_parts(e: Expr) -> tuple[Expr, Expr] | None:
    """(a, b) with e = a*x + b variable-free in a, b and a nonzero."""
    p = poly_coeffs(e)
    if p is None or any(d > 1 for d in p) or 1 not in p:
        return None
    return p[1], p.get(0, ZERO)


def antiderivative(e: Expr, env: AssumptionEnv, lo, hi) -> Expr | None:
    """An elementary antiderivative of e on (lo, hi), or None.

    Covers polynomials, rational powers / exp / ln of affine arguments,
    variable-free scalings of any of those, and abs of an affine map
    whose sign is constant on the piece (true for every monotone body).
    Log branches are left as Ln(u); the caller repairs negative-u
    branches afterwards.
    """
    e = simplify(e)
    if not contains_var(e):
        return Mul(e, X)
    p = poly_coeffs(e)
    if p is not None:
        acc = None
        for d, c in sorted(p.items()):
            t = Div(Mul(c, Pow(X, Fraction(d + 1))), as_expr(d + 1))
            acc = t if acc is None else Add(acc, t)
        return acc
    if isinstance(e, Neg):
        r = antiderivative(e.arg, env, lo, hi)
        return None if r is None else Neg(r)
    if isinstance(e, (Add, Sub)):
        a = antiderivative(e.left, env, lo, hi)
        b = antiderivative(e.right, env, lo, hi)
        if a is None or b is None:
            return None
        return Add(a, b) if isinstance(e, Add) else Sub(a, b)
    if isinstance(e, Mul):
        if not contains_var(e.left):
            r = antiderivative(e.right, env, lo, hi)
            return None if r is None else Mul(e.left, r)
        if not contains_var(e.right):
            r = antiderivative(e.left, env, lo, hi)
            return None if r is None else Mul(r, e.right)
        return None
    if isinstance(e, Div):
        if not contains_var(e.right):
            r = antiderivative(e.left, env, lo, hi)
            return None if r is None else Div(r, e.right)
        if not contains_var(e.left):
            ab = _affine_parts(e.right)
            if ab is not None:
                return Div(Mul(e.left, Ln(e.right)), ab[0])
            if isinstance(e.right, Pow):
                # c / u^q inline: recursing via Pow(u, -q) would just
                # re-canonicalize back into this Div
                ab = _affine_parts(e.right.base)
                if ab is None:
                    return None
                q1 = 1 - e.right.exponent
                if q1 == 0:
                    return Div(Mul(e.left, Ln(e.right.base)), ab[0])
                return Div(Mul(e.left, Pow(e.right.base, q1)), Mul(ab[0], as_expr(q1)))
        return None
    if isinstance(e, Pow):
        ab = _affine_parts(e.base)
        if ab is None:
            return None
        a = ab[0]
        if e.exponent == -1:
            return Div(Ln(e.base), a)
        q1 = e.exponent + 1
        return Div(Pow(e.base, q1), Mul(a, as_expr(q1)))
    if isinstance(e, Exp):
        ab = _affine_parts(e.arg)
        if ab is None:
            return None
        return Div(e, ab[0])
    if isinstance(e, Ln):
        ab = _affine_parts(e.arg)
        if ab is None:
            return None
        u = e.arg
        return Div(Sub(Mul(u, Ln(u)), u), ab[0])
    if isinstance(e, Abs):
        # monotone bodies keep the argument's sign fixed on the piece
        s = _sign_on_interval(e.arg, env, lo, hi)
        if s is None or s == 0:
            return None
        r = antiderivative(e.arg, env, lo, hi)
        if r is None:
            return None
        return r if s > 0 else Neg(r)
    return None


def _fix_log_branch(e: Expr, env: AssumptionEnv, lo, hi) -> Expr:
    """Rewrite Ln(u) as Ln(-u) wherever u < 0 on (lo, hi)."""

    def go(node: Expr) -> Expr:
        if isinstance(node, Ln):
            arg = go(node.arg)
            if contains_var(arg) and _sign_on_interval(arg, env, lo, hi) == -1:
                return Ln(simplify(Neg(arg)))
            return Ln(arg)
        return map_children(node, go)

    return go(e)


def _inverse_primitive(body: Expr, env: AssumptionEnv) -> Expr | None:
    """An antiderivative of the forward map of an implicit inverse body,
    in the forward's variable and on its (lo, hi), or None."""
    if not isinstance(body, ImplicitInverse):
        return None
    G = antiderivative(body.forward, env, body.lo, body.hi)
    return None if G is None else _fix_log_branch(simplify(G), env, body.lo, body.hi)


# ---------------------------------------------------------------------------
# integ
# ---------------------------------------------------------------------------


def _interior_point(lo, hi) -> Expr:
    """A point inside the interval (lo, hi): its midpoint, or one unit
    inside a finite end, or 0."""
    lo_inf = isinstance(lo, float) and math.isinf(lo)
    hi_inf = isinstance(hi, float) and math.isinf(hi)
    if lo_inf and hi_inf:
        return ZERO
    if lo_inf:
        return simplify(Sub(as_expr(hi), as_expr(1)))
    if hi_inf:
        return simplify(Add(as_expr(lo), as_expr(1)))
    return simplify(Div(Add(as_expr(lo), as_expr(hi)), as_expr(2)))


def _end_value(A: Expr, b: Expr, side: str, env: AssumptionEnv):
    """Value of the antiderivative A at the finite cell endpoint b,
    approached from inside the cell; Expr, or a float infinity."""
    if is_numeric_node(A):
        return numeric.body_at(A, b, env)
    return _body_limit(A, b, side, env)


def _edge_value(v):
    """Normalize a one-sided limit into a storable hull-edge value.

    Closed convex functions may jump to +inf at the edge but never to
    -inf; a finite probed float is legitimate and kept exactly.
    """
    if isinstance(v, float):
        if math.isinf(v):
            if v < 0:
                raise InternalInconsistency("antiderivative diverges to -inf at the domain edge")
            return v
        return as_expr(Fraction(v))
    return v


def _body_limit(body: Expr, b, side: str, env: AssumptionEnv):
    try:
        return limit_at(body, b, side, env)
    except UnsupportedOperation:
        return as_expr(numeric.value(body, numeric.binding(env), b))


def _slice_edge(T: MonotoneOperator, s: int, side: str):
    """Lower (side "right") or upper (side "left") end of the operator
    values on slice s."""
    env = T.env
    if s % 2:
        lo, hi = T.values[s // 2].bounds()
        return hi if side == "left" else lo
    clo, chi = T.interval(s // 2)
    return _body_limit(T.pieces[s // 2].body, chi if side == "left" else clo, side, env)


def _gap_slope(T: MonotoneOperator, c: int, live: list[int]) -> Expr:
    """Connector slope for the empty interior cell c: the midpoint of
    the nearest operator values on either side."""
    left = [s for s in live if s < 2 * c]
    right = [s for s in live if s > 2 * c]
    L = _slice_edge(T, left[-1], "left") if left else None
    R = _slice_edge(T, right[0], "right") if right else None
    if L is None or R is None or isinstance(L, float) or isinstance(R, float):
        raise InternalInconsistency("cannot bound the slope across an interior gap")
    return simplify(Div(Add(L, R), as_expr(2)))


def integ(T: MonotoneOperator, anchor=None, anchor_value=0) -> PiecewiseFunction:
    """The convex function with derivative T: continuous on the hull of
    dom T, +inf outside its closure, subdifferential extending T.

    With anchor=None the leftmost finite piece keeps its raw
    antiderivative (no constant added); otherwise the whole function is
    shifted so f(anchor) = anchor_value.
    """
    env = T.env
    live = T.live_slices()
    if not live:
        raise EmptyOperator("cannot antidifferentiate an operator with empty graph")
    s0, s1 = live[0], live[-1]
    n = len(T.breakpoints)

    if s0 == s1 and s0 % 2 == 1:
        # graph lives at a single breakpoint: an indicator of one point
        b = T.breakpoints[(s0 - 1) // 2]
        f = build_function(T.varname, [b], [None, None], [ZERO], env)
        return _shift_to_anchor(f, anchor, anchor_value)

    # index range of breakpoints kept in f, and hull boundedness
    if s0 % 2 == 1:
        j_lo, left_unbounded = (s0 - 1) // 2, False
    else:
        k = s0 // 2
        left_unbounded = k == 0
        j_lo = 0 if k == 0 else k - 1
    if s1 % 2 == 1:
        j_hi, right_unbounded = (s1 - 1) // 2, False
    else:
        k = s1 // 2
        right_unbounded = k == n
        j_hi = n - 1 if k == n else k

    bps = list(T.breakpoints[j_lo : j_hi + 1])
    m_count = len(bps) + 1

    raw: list[Expr | None] = []  # None marks a piece outside the hull
    for m in range(m_count):
        c = j_lo + m
        inside = (m > 0 or left_unbounded) and (m < m_count - 1 or right_unbounded)
        if not inside:
            raw.append(None)
            continue
        clo, chi = T.interval(c)
        p = T.pieces[c]
        if p.empty:
            raw.append(Mul(_gap_slope(T, c, live), X))
            continue
        A = antiderivative(p.body, env, clo, chi)
        if A is None:
            A = NumericIntegral(p.body, _interior_point(clo, chi), _inverse_primitive(p.body, env))
        else:
            A = _fix_log_branch(simplify(A), env, clo, chi)
        raw.append(A)

    # stitch constants left to right; the first inside piece keeps raw
    pieces: list[Expr | None] = [None] * m_count
    values: list = [None] * len(bps)
    shift: Expr = ZERO
    started = False
    for m in range(m_count):
        A = raw[m]
        if A is None:
            continue
        clo, chi = T.interval(j_lo + m)
        if not started:
            started = True
            pieces[m] = A
            if m > 0:
                values[m - 1] = _edge_value(_end_value(A, bps[m - 1], "right", env))
        else:
            b = bps[m - 1]
            left_total = _end_value(pieces[m - 1], b, "left", env)
            right_raw = _end_value(A, b, "right", env)
            if isinstance(left_total, float) or isinstance(right_raw, float):
                raise InternalInconsistency(
                    f"cannot stitch the antiderivative across {to_text(as_expr(b))}"
                )
            shift = simplify(Sub(left_total, right_raw))
            pieces[m] = simplify(Add(A, shift)) if not is_numeric_node(A) else Add(A, shift)
            values[m - 1] = left_total
        last_inside = m
    # value at the right hull edge, if f ends before +inf
    if raw[last_inside] is not None and last_inside < m_count - 1:
        values[last_inside] = _edge_value(
            _end_value(pieces[last_inside], bps[last_inside], "left", env)
        )

    out_pieces = [p if p is not None else None for p in pieces]
    out_values = [v if v is not None else INF for v in values]
    f = build_function(T.varname, bps, out_pieces, out_values, env)
    return _shift_to_anchor(f, anchor, anchor_value)


def _shift_to_anchor(f: PiecewiseFunction, anchor, anchor_value) -> PiecewiseFunction:
    if anchor is None:
        return f
    if isinstance(anchor_value, float) and math.isinf(anchor_value):
        raise InputError("the anchor value must be finite")
    xe = simplify(parse_expr(anchor) if isinstance(anchor, str) else as_expr(anchor))
    cur = f.at(xe)
    if isinstance(cur, float):
        raise InputError(f"anchor {to_text(xe)} lies outside the domain")
    target = parse_expr(anchor_value) if isinstance(anchor_value, str) else as_expr(anchor_value)
    return _shift_by(f, simplify(Sub(target, cur)))


def _shift_by(f: PiecewiseFunction, g: Expr, weakly_convex: bool | None = None) -> PiecewiseFunction:
    """f + g pointwise, for a g defined on the whole line (a constant or
    a polynomial); the result is weakly convex as f is, unless
    ``weakly_convex`` says otherwise."""
    if is_zero(g):
        return f
    pieces = [None if p.empty else Add(p.body, g) for p in f.pieces]
    values = [v if isinstance(v, float) else simplify(Add(v, numeric.body_at(g, b, f.env)))
              for b, v in zip(f.breakpoints, f.values)]
    weakly = f.weakly_convex if weakly_convex is None else weakly_convex
    return build_function(f.varname, list(f.breakpoints), pieces, values, f.env, weakly)


# ---------------------------------------------------------------------------
# Fenchel conjugation
# ---------------------------------------------------------------------------


def _representative(v) -> Expr | None:
    """A finite member of a set value, preferring structure-free picks."""
    if v.tag == "point":
        return v.lo
    if v.tag == "all":
        return ZERO
    if v.tag == "interval":
        lo_inf = isinstance(v.lo, float)
        hi_inf = isinstance(v.hi, float)
        if lo_inf and hi_inf:
            return ZERO
        if lo_inf:
            return v.hi
        if hi_inf:
            return v.lo
        return simplify(Div(Add(v.lo, v.hi), as_expr(2)))
    return None


def _pin_candidates(Sinv: MonotoneOperator, g: PiecewiseFunction) -> list[Expr]:
    out: list[Expr] = []
    bps = list(Sinv.breakpoints)
    if bps:
        out.append(bps[len(bps) // 2])
    d = domain(g)
    out.append(_interior_point(d.lo, d.hi))
    out.extend(b for b in bps if b not in out)
    for b in bps:
        out.append(simplify(Sub(b, as_expr(1))))
        out.append(simplify(Add(b, as_expr(1))))
    return out


def _check_no_interior_gap(Sinv: MonotoneOperator) -> None:
    live = Sinv.live_slices()
    if not live:
        raise InternalInconsistency("the inverse subdifferential has empty graph")
    if any(s % 2 == 0 and s not in live for s in range(live[0], live[-1])):
        raise InternalInconsistency(
            "the conjugate domain has an interior hole; the input cannot be a valid convex function"
        )


def conjugate(f: PiecewiseFunction) -> PiecewiseFunction:
    """Fenchel conjugate, computed as the pinned antiderivative of the
    inverse of the subdifferential."""
    S = subdifferential(f)
    Sinv = invert(S)
    _check_no_interior_gap(Sinv)
    g = integ(Sinv)
    env = f.env
    for y0 in _pin_candidates(Sinv, g):
        try:
            xs = eval_op(Sinv, y0)
        except Exception:
            continue
        x0 = _representative(xs)
        if x0 is None:
            continue
        try:
            fx = f.at(simplify(x0))
            gy = g.at(simplify(y0))
        except Exception:
            continue
        if isinstance(fx, float) or isinstance(gy, float):
            continue
        target = simplify(Sub(Mul(y0, x0), fx))
        return _shift_by(g, simplify(Sub(target, gy)))
    raise ConstantPinFailure("no finite graph point found to pin the conjugate")


def biconjugate(f: PiecewiseFunction) -> PiecewiseFunction:
    return conjugate(conjugate(f))
