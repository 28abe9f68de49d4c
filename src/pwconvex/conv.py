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
conjugate composes subdifferential -> invert -> integ, and integ fixes
the additive constant before it builds the result, from the
Fenchel-Young equality at a single graph point; the pointwise sup
formula never enters (only the brute-force cross-check in
``tests/oracles.py`` takes that route).
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
from .grid import kept
from .inverse import _sign_on_interval
from .limits import exact_one_sided_limit, limit_at
from .monop import MonotoneOperator, eval_op, invert, subdifferential
from .pwf import PiecewiseFunction, build_function, domain
from .simplify import affine_parts, is_zero, poly_coeffs, simplify

INF = math.inf


# ---------------------------------------------------------------------------
# Elementary antiderivatives
# ---------------------------------------------------------------------------


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
            ab = affine_parts(e.right)
            if ab is not None:
                return Div(Mul(e.left, Ln(e.right)), ab[0])
            if isinstance(e.right, Pow):
                # c / u^q inline: recursing via Pow(u, -q) would just
                # re-canonicalize back into this Div
                ab = affine_parts(e.right.base)
                if ab is None:
                    return None
                q1 = 1 - e.right.exponent
                if q1 == 0:
                    return Div(Mul(e.left, Ln(e.right.base)), ab[0])
                return Div(Mul(e.left, Pow(e.right.base, q1)), Mul(ab[0], as_expr(q1)))
        return None
    if isinstance(e, Pow):
        ab = affine_parts(e.base)
        if ab is None:
            return None
        a = ab[0]
        if e.exponent == -1:
            return Div(Ln(e.base), a)
        q1 = e.exponent + 1
        return Div(Pow(e.base, q1), Mul(a, as_expr(q1)))
    if isinstance(e, Exp):
        ab = affine_parts(e.arg)
        if ab is None:
            return None
        return Div(e, ab[0])
    if isinstance(e, Ln):
        ab = affine_parts(e.arg)
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


def _integral_base(body: Expr, lo, hi, env: AssumptionEnv) -> Expr:
    """The base of a numeric piece on the cell (lo, hi): a finite end
    where body has a finite one-sided limit, lo before hi, so that the
    piece is exactly 0 there; else a point inside the cell."""
    for end, side in ((lo, "right"), (hi, "left")):
        if isinstance(end, Expr) and isinstance(exact_one_sided_limit(body, end, side, env), Expr):
            return end
    return _interior_point(lo, hi)


def _end_value(A: Expr, b: Expr, side: str, env: AssumptionEnv):
    """Value of the antiderivative A at the finite cell endpoint b,
    approached from inside the cell; Expr, or a float infinity.  A
    numeric A is exact where the structural limit decides it (at its
    base), else its float at b."""
    if is_numeric_node(A):
        v = exact_one_sided_limit(A, b, side, env)
        return numeric.body_at(A, b, env) if v is None else v
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

    One loop over the cells inside the hull, left to right, makes each
    cell's antiderivative (an affine connector across an empty cell) and
    stitches it onto its left neighbour at once.  With anchor=None the
    leftmost finite piece keeps its raw antiderivative (no constant
    added); otherwise the constant is chosen so f(anchor) = anchor_value.

    A piece with no elementary antiderivative is a NumericIntegral based
    at a finite end of its cell where T's body has a finite one-sided
    limit, the lower end before the upper (``_integral_base``).  The
    piece is then exactly 0 there (``limits`` takes an integral at its
    own base), so the value at that end and the stitch across it are
    exact; only a cell with no such end is based inside, and read in
    floats at its ends.
    """
    env = T.env
    live = T.live_slices()
    if not live:
        raise EmptyOperator("cannot antidifferentiate an operator with empty graph")
    c0, c1 = (live[0] + 1) // 2, live[-1] // 2  # the cells inside the hull of dom T
    j_lo = max(c0 - 1, 0)  # f keeps T's breakpoints from j_lo to c1
    bps = list(T.breakpoints[j_lo : c1 + 1])
    pieces: list[Expr | None] = [None] * (len(bps) + 1)
    # no cell inside: the graph lives at one breakpoint, and f is its indicator
    values: list = [INF] * len(bps) if c0 <= c1 else [ZERO]
    for c in range(c0, c1 + 1):
        m = c - j_lo
        clo, chi = T.interval(c)
        p = T.pieces[c]
        if p.empty:
            A = Mul(_gap_slope(T, c, live), X)
        elif (A := antiderivative(p.body, env, clo, chi)) is None:
            A = NumericIntegral(p.body, _integral_base(p.body, clo, chi, env), _inverse_primitive(p.body, env))
        else:
            A = _fix_log_branch(simplify(A), env, clo, chi)
        if c == c0:
            # the first inside piece keeps its raw constant
            if m > 0:
                values[m - 1] = _edge_value(_end_value(A, clo, "right", env))
        else:
            # stitch onto the left neighbour for continuity at clo
            left_total = _end_value(pieces[m - 1], clo, "left", env)
            right_raw = _end_value(A, clo, "right", env)
            if isinstance(left_total, float) or isinstance(right_raw, float):
                raise InternalInconsistency(
                    f"cannot stitch the antiderivative across {to_text(as_expr(clo))}"
                )
            shift = simplify(Sub(left_total, right_raw))
            A = simplify(Add(A, shift)) if not is_numeric_node(A) else Add(A, shift)
            values[m - 1] = left_total
        pieces[m] = A
    if c0 <= c1 < len(T.breakpoints):
        # value at the right hull edge, as f ends before +inf
        values[-1] = _edge_value(_end_value(pieces[-2], bps[-1], "left", env))

    if anchor is not None:
        c = _anchor_shift(T, j_lo, pieces, values, anchor, anchor_value)
        if not is_zero(c):
            pieces = [None if p is None else Add(p, c) for p in pieces]
            values = [v if isinstance(v, float) else Add(v, c) for v in values]
    return build_function(T.varname, bps, pieces, values, env)


def _anchor_shift(T: MonotoneOperator, j_lo: int, pieces: list, values: list, anchor, anchor_value) -> Expr:
    """The constant that makes integ's parts, laid on T's breakpoints
    from j_lo on, take anchor_value at anchor."""
    if isinstance(anchor_value, float) and math.isinf(anchor_value):
        raise InputError("the anchor value must be finite")
    xe = simplify(parse_expr(anchor) if isinstance(anchor, str) else as_expr(anchor))
    where, i = T.locate(xe)
    k = i - j_lo
    if where == "breakpoint":
        cur = values[k] if 0 <= k < len(values) else INF
    else:
        body = pieces[k] if 0 <= k < len(pieces) else None
        cur = INF if body is None else numeric.body_at(body, xe, T.env)
    if isinstance(cur, float):
        raise InputError(f"anchor {to_text(xe)} lies outside the domain")
    target = parse_expr(anchor_value) if isinstance(anchor_value, str) else as_expr(anchor_value)
    return simplify(Sub(target, cur))


def _shift_by(f: PiecewiseFunction, g: Expr, weakly_convex: bool = False) -> PiecewiseFunction:
    """f + g pointwise, for a g defined on the whole line (a constant or
    a polynomial), built weakly convex when ``weakly_convex``."""
    if is_zero(g):
        return f
    pieces = [None if p.empty else Add(p.body, g) for p in f.pieces]
    values = [v if isinstance(v, float) else simplify(Add(v, numeric.body_at(g, b, f.env)))
              for b, v in zip(f.breakpoints, f.values)]
    return build_function(f.varname, list(f.breakpoints), pieces, values, f.env, weakly_convex)


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


def _pin_candidates(Sinv: MonotoneOperator) -> list[Expr]:
    out: list[Expr] = []
    bps = list(Sinv.breakpoints)
    if bps:
        out.append(bps[len(bps) // 2])
    d = domain(Sinv)
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
    """Fenchel conjugate, computed as the antiderivative of the inverse
    of the subdifferential, anchored at a graph point (y0, x0) of that
    inverse to the Fenchel-Young value y0*x0 - f(x0).  Built once per f
    and kept on it (``grid.kept``), so the biconjugate reuses it."""
    return kept(f, "conjugate", lambda: _conjugate(f))


def _conjugate(f: PiecewiseFunction) -> PiecewiseFunction:
    S = subdifferential(f)
    Sinv = invert(S)
    _check_no_interior_gap(Sinv)
    for y0 in _pin_candidates(Sinv):
        try:
            xs = eval_op(Sinv, y0)
        except Exception:
            continue
        x0 = _representative(xs)
        if x0 is None:
            continue
        try:
            fx = f.at(simplify(x0))
        except Exception:
            continue
        if isinstance(fx, float):
            continue
        return integ(Sinv, y0, simplify(Sub(Mul(y0, x0), fx)))
    raise ConstantPinFailure("no finite graph point found to pin the conjugate")


def biconjugate(f: PiecewiseFunction) -> PiecewiseFunction:
    return conjugate(conjugate(f))
