"""Piecewise convex functions on the real line.

A function is a breakpoint grid (see grid.py) whose pieces are affine,
strictly convex and differentiable, or identically +inf, and whose
breakpoint values are extended reals.  Parsing certifies each piece
convex (``classify_piece``): a polynomial by the exact signs of f''
(poly.py), any other body by Chebyshev sampling.  Construction stores
the bodies only (``piece_kind`` reads a piece's kind from its body where
it is shown) and always runs normalization (redundant breakpoints are
merged) and validation: lower semicontinuity, continuity relative to the
domain, and convexity across breakpoints.  Parsing lays the branches on
one cover (``grid.cover``): the root of an absolute value inside its
branch is a breakpoint like any other, and each cell's body holds the
absolute value with the sign its argument takes there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numeric
from .assumptions import AssumptionEnv, EMPTY_ENV, Ordering
from .errors import (
    DiscontinuousOnDomain,
    DomainError,
    InputError,
    NonConvex,
    NotLsc,
    UndecidableComparison,
)
from .expr import (
    Abs,
    Add,
    Expr,
    Neg,
    Sub,
    TokenStream,
    as_expr,
    contains_var,
    differentiate,
    evaluate,
    map_children,
    substitute,
    to_text,
    walk,
    _parse_expr,
)
from .grid import (
    Grid,
    Piece,
    Region,
    cell,
    certify,
    checked_breakpoints,
    cover,
    limits_beside,
    merge_seamless,
    parse_branches,
    piece_body,
    rebind_var,
)
from .inverse import derivative_signs
from .limits import one_sided_limit
from .simplify import affine_parts, simplify

INF = math.inf

KIND_AFFINE = "affine"
KIND_STRICT = "strictly-convex"
KIND_INFINITE = "infinite"
KIND_SMOOTH = "smooth"  # weakly convex containers only (penalty recovery)

CLASSIFY_WINDOW = 30.0


@dataclass(frozen=True)
class Interval:
    lo: Expr | float  # -inf when unbounded below
    hi: Expr | float
    lo_closed: bool
    hi_closed: bool
    empty: bool = False

    def __str__(self) -> str:
        if self.empty:
            return "empty"
        lo = "-inf" if isinstance(self.lo, float) else to_text(self.lo)
        hi = "inf" if isinstance(self.hi, float) else to_text(self.hi)
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{lo}, {hi}{rb}"


@dataclass(frozen=True)
class PiecewiseFunction(Grid):
    """A closed convex function: each piece is affine, strictly convex,
    or +inf (empty), and each breakpoint value is a finite Expr or +inf."""

    weakly_convex: bool = False

    @staticmethod
    def value_empty(v) -> bool:
        return numeric.is_inf(v)

    @staticmethod
    def value_point(v) -> Expr | None:
        return None if numeric.is_inf(v) else v

    @staticmethod
    def piece_value(body: Expr | None):
        return INF if body is None else body

    def __str__(self) -> str:
        from .render import render_function

        return render_function(self)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def classify_piece(body: Expr, env: AssumptionEnv, lo, hi, varname: str = "x") -> str:
    """Affine vs strictly convex on the open interval (lo, hi).

    Affine is decided symbolically (derivative free of the variable).  A
    polynomial is certified strictly convex by the signs of its second
    derivative (``inverse.derivative_signs``); any other body by
    sampling the derivative at Chebyshev nodes.  A sampled fall of the
    derivative (``numeric.step``: beyond a tie) raises NonConvex.
    """
    exact = derivative_signs(body, 2, env, lo, hi)
    d = None if exact is not None else simplify(differentiate(body))
    if exact == {} or d is not None and not contains_var(d):
        return KIND_AFFINE
    if exact is not None:
        if -1 in exact:
            raise NonConvex(f"second derivative of {to_text(body, varname)} is negative", witness=exact[-1])
        return KIND_STRICT
    samples = numeric.sample(d, env, lo, hi, CLASSIFY_WINDOW)
    if samples is None:
        raise UndecidableComparison(to_text(body, varname), "interval bounds")
    prev = None
    prev_x = None
    for x, v in samples:
        if v is None:
            prev = None
            continue
        if prev is not None and v < prev and numeric.step(prev, v) < 0:
            raise NonConvex(
                f"derivative of {to_text(body, varname)} decreases between sampled points",
                witness=(prev_x, 0.5 * (prev_x + x), x),
            )
        prev, prev_x = v, x
    return KIND_STRICT


def piece_kind(body: Expr | None, weakly_convex: bool = False) -> str:
    """The kind of a convex piece, read from its body (None for +inf):
    affine when its derivative is free of the variable, else strictly
    convex (smooth in a weakly convex grid)."""
    if body is None:
        return KIND_INFINITE
    if not contains_var(simplify(differentiate(body))):
        return KIND_AFFINE
    return KIND_SMOOTH if weakly_convex else KIND_STRICT


def _derivative_limit(piece: Piece, b: Expr, side: str, env: AssumptionEnv):
    d = simplify(differentiate(piece.body))
    return one_sided_limit(d, b, side, env)


def build_function(
    varname: str,
    breakpoints: list[Expr],
    pieces: list[Piece | Expr | None],
    values: list,
    env: AssumptionEnv = EMPTY_ENV,
    weakly_convex: bool = False,
) -> PiecewiseFunction:
    """Normalize and validate; the only constructor used by parsing and
    by every operation."""
    bps = checked_breakpoints(breakpoints, pieces, values, env)
    normd = [Piece(body) for body in map(piece_body, pieces)]
    vals = [v if numeric.is_inf(v) else simplify(as_expr(v)) for v in values]
    f = PiecewiseFunction(varname, *merge_seamless(PiecewiseFunction, bps, normd, vals, env), env, weakly_convex)
    validate(f)
    return f


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _limit_into(f: PiecewiseFunction, i: int, b: Expr, side: str):
    """Limit of f at breakpoint b approaching through piece i."""
    piece = f.pieces[i]
    if piece.empty:
        return INF
    return one_sided_limit(piece.body, b, side, f.env)


def validate(f: PiecewiseFunction) -> None:
    """Check lsc, continuity on the domain, and convexity."""
    env = f.env
    # continuity / lsc at every breakpoint
    for i, b in enumerate(f.breakpoints):
        v = f.values[i]
        L = _limit_into(f, i, b, "left")
        R = _limit_into(f, i + 1, b, "right")
        L_inf = numeric.is_inf(L)
        R_inf = numeric.is_inf(R)
        v_inf = numeric.is_inf(v)
        where = to_text(b)
        if not L_inf and not R_inf:
            if not numeric.equal(env, L, R):
                raise DiscontinuousOnDomain(f"one-sided limits differ at {where}")
            if numeric.less(env, L, v):
                raise NotLsc(f"value at {where} exceeds the one-sided limit")
            if numeric.less(env, v, L):
                raise DiscontinuousOnDomain(f"value at {where} lies below the one-sided limit")
        elif not L_inf or not R_inf:
            fin = R if L_inf else L
            if numeric.less(env, fin, v):
                raise NotLsc(f"value at {where} exceeds the adjacent limit")
            if numeric.less(env, v, fin):
                raise DiscontinuousOnDomain(f"value at {where} lies below the adjacent limit")
        else:
            if not v_inf:
                left_piece, right_piece = f.pieces[i], f.pieces[i + 1]
                if not (left_piece.empty and right_piece.empty):
                    raise DiscontinuousOnDomain(
                        f"finite value at {where} but the function blows up beside it"
                    )

    # convexity across breakpoints: left slope limit <= right slope limit
    for i, b in enumerate(f.breakpoints):
        left_piece, right_piece = f.pieces[i], f.pieces[i + 1]
        if left_piece.empty or right_piece.empty:
            continue
        dl = _derivative_limit(left_piece, b, "left", env)
        dr = _derivative_limit(right_piece, b, "right", env)
        if numeric.order(env, dl, dr) == Ordering.GREATER and not f.weakly_convex:
            raise NonConvex(
                f"slope decreases across breakpoint {to_text(b)}",
                witness=(
                    to_text(simplify(Sub(b, as_expr(1)))),
                    to_text(b),
                    to_text(simplify(Add(b, as_expr(1)))),
                ),
            )


# ---------------------------------------------------------------------------
# Evaluation / domain
# ---------------------------------------------------------------------------


def eval_pwf(f: PiecewiseFunction, x, params: dict | None = None):
    """Extended-real value at x; exact rationals preserved when possible."""
    params_e = {k: as_expr(v) for k, v in params.items()} if params else None
    xe = simplify(substitute(as_expr(x), params=params_e)) if params_e else simplify(as_expr(x))
    where, i = f.locate(xe, params_e)
    if where == "breakpoint":
        v = f.values[i]
        if isinstance(v, float):
            return v
        v = substitute(v, params=params_e) if params_e else v
        return evaluate(v)
    piece = f.pieces[i]
    if piece.empty:
        return INF
    body = substitute(piece.body, params=params_e) if params_e else piece.body
    return evaluate(body, x=evaluate(xe))


def domain(f: Grid) -> Interval:
    """The interval on which f is finite (with an empty flag); for an
    operator, the hull of its domain."""
    live = f.live_slices()
    if not live:
        return Interval(-INF, INF, False, False, empty=True)
    s0, s1 = live[0], live[-1]
    lo = f.breakpoints[(s0 - 1) // 2] if s0 > 0 else -INF
    hi = f.breakpoints[s1 // 2] if s1 < 2 * len(f.breakpoints) else INF
    return Interval(lo, hi, s0 % 2 == 1, s1 % 2 == 1)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _abs_roots(region: Region, body, env: AssumptionEnv) -> list[tuple[Abs, Expr, int]]:
    """(node, root, sign of the slope) of each absolute value in a branch
    body; its argument must be affine in the variable, with no absolute
    value inside, and its slope of known sign.  A point branch, or an inf
    one, has none."""
    if body is _INF_BODY or region.is_point:
        return []
    out = []
    for node in walk(body):
        if isinstance(node, Abs) and contains_var(node.arg):
            if any(isinstance(inner, Abs) and contains_var(inner.arg) for inner in walk(node.arg)):
                raise InputError("nested absolute values are not supported")
            ab = affine_parts(simplify(node.arg))
            if ab is None:
                raise InputError(f"absolute value argument must be affine in the variable: {to_text(node.arg)}")
            a, b = ab
            sgn_a = env.sign_of(a)
            if not sgn_a:
                raise UndecidableComparison(to_text(a), "0")
            out.append((node, simplify(Neg(b) / a), sgn_a))
    return out


def _strictly_inside(r: Expr, region: Region, env: AssumptionEnv) -> bool:
    return all(isinstance(lo, float) or isinstance(hi, float) or env.require_comparable(lo, hi) == Ordering.LESS
               for lo, hi in ((region.lo, r), (r, region.hi)))


def _strip_abs(body: Expr, signs: dict[Abs, int]) -> Expr:
    """Rewrite each absolute value with the sign its argument takes."""

    def go(e: Expr) -> Expr:
        if isinstance(e, Abs) and e in signs:
            inner = go(e.arg)
            return inner if signs[e] > 0 else Neg(inner)
        return map_children(e, go)

    return go(body)


_INF_BODY = object()


def parse_pwf(text: str, env: AssumptionEnv = EMPTY_ENV) -> PiecewiseFunction:
    """Parse the piecewise DSL (or a bare expression meaning one piece
    covering the whole line) and build the validated function.  A
    function that is +inf everywhere is not proper: InputError.  Pieces
    are certified here, once (``classify_piece``)."""
    varname, bps, pieces, values = parse_piecewise_map(text, env)
    certify(bps, pieces, env, classify_piece, varname)
    f = build_function(varname, bps, pieces, values, env)
    if not f.live_slices():
        raise InputError("the function is +inf everywhere; a proper function is finite somewhere")
    return f


def parse_piecewise_map(
    text: str, env: AssumptionEnv = EMPTY_ENV
) -> tuple[str, list[Expr], list[Expr | None], list]:
    """Parse the same DSL but skip F-class validation entirely.

    Returns (varname, breakpoints, piece bodies, breakpoint values); a
    body of None means the guard said inf.  Used for inputs that are
    monotone maps rather than convex functions.
    """
    branches, varname = parse_branches(text, env, "pw", _parse_body)
    return (varname, *_assemble_parts(branches, env))


def _parse_body(ts: TokenStream, varname: str, bare: bool):
    """A branch body: an expression, or inf inside pw{...}."""
    t = ts.peek()
    if not bare and t.kind == "IDENT" and t.text == "inf":
        ts.next()
        return _INF_BODY
    return rebind_var(_parse_expr(ts), varname)


def _assemble_parts(branches, env: AssumptionEnv):
    """Breakpoints, pieces and values of parsed branches.  The roots of
    absolute values inside their branch are breakpoints of the cover, and
    each cell rewrites its branch's absolute values by the sign their
    arguments take on it."""
    roots = [_abs_roots(region, body, env) for region, body in branches]
    inner = [r for (region, _), rs in zip(branches, roots) for _, r, _ in rs if _strictly_inside(r, region, env)]
    bps, cells, at = cover([(region, k) for k, (region, _) in enumerate(branches)], env, inner)
    pieces = [_cell_body(branches[k][1], roots[k], cell(bps, i)[1], env) for i, k in enumerate(cells)]
    values: list = []
    for j, b in enumerate(bps):
        k = at[j]
        if k is None:
            values.append(_default_value(pieces, bps, j, env))
        elif branches[k][1] is _INF_BODY:
            values.append(INF)
        else:
            owned = [(side, pieces[c]) for side, c in (("right", j + 1), ("left", j)) if cells[c] == k]
            values.append(_closed_end_value(owned[0][1] if owned else branches[k][1], owned, b, env))
    return bps, pieces, values


def _cell_body(body, roots, hi, env: AssumptionEnv):
    """The branch body on a cell that ends at hi, each absolute value
    rewritten with the sign its argument takes there (no root lies inside
    a cell); None for an inf branch."""
    if body is _INF_BODY:
        return None
    if not roots:
        return body
    signs = {node: s if isinstance(hi, float) or env.require_comparable(hi, r) == Ordering.GREATER else -s
             for node, r, s in roots}
    return simplify(_strip_abs(body, signs))


def _closed_end_value(body: Expr, owned, b: Expr, env: AssumptionEnv):
    """The body at the breakpoint b; where substitution has no value
    (ln(0) at a closed end), the one-sided limit from inside the one cell
    its branch owns beside b (``owned``: (side, piece) pairs)."""
    try:
        return simplify(substitute(body, var=b))
    except DomainError:
        if len(owned) != 1:
            raise
        side, piece = owned[0]
        return one_sided_limit(piece, b, side, env)


def _default_value(pieces, bps, j, env: AssumptionEnv):
    """Continuity / lsc-closure default at an uncovered breakpoint."""
    L, R = limits_beside(pieces, bps, j, env)
    if L is None or R is None:
        return INF if L is None and R is None else L if R is None else R
    if not numeric.equal(env, L, R):
        raise DiscontinuousOnDomain(f"one-sided limits differ at omitted breakpoint {to_text(bps[j])}")
    return L
