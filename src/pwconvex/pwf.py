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
one cover (``grid.cover_bodies``), which resolves their absolute values:
the root of an absolute value inside its branch is a breakpoint like any
other.
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
    Add,
    Expr,
    Sub,
    TokenStream,
    as_expr,
    contains_var,
    differentiate,
    evaluate,
    substitute,
    to_text,
    _parse_expr,
)
from .grid import (
    Grid,
    Piece,
    Region,
    certify,
    checked_breakpoints,
    cover_bodies,
    limits_beside,
    merge_seamless,
    parse_branches,
    piece_body,
    rebind_var,
)
from .inverse import derivative_signs
from .limits import one_sided_limit
from .simplify import simplify

INF = math.inf

KIND_AFFINE = "affine"
KIND_STRICT = "strictly-convex"
KIND_INFINITE = "infinite"
KIND_SMOOTH = "smooth"  # weakly convex containers only (penalty recovery)

CLASSIFY_WINDOW = 30.0


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
        where = to_text(b)
        if L_inf and R_inf:
            if not numeric.is_inf(v) and not (f.pieces[i].empty and f.pieces[i + 1].empty):
                raise DiscontinuousOnDomain(f"finite value at {where} but the function blows up beside it")
            continue
        side = "adjacent" if L_inf or R_inf else "one-sided"
        if side == "one-sided" and numeric.order(env, L, R) != Ordering.EQUAL:
            raise DiscontinuousOnDomain(f"one-sided limits differ at {where}")
        against = numeric.order(env, R if L_inf else L, v)
        if against == Ordering.LESS:
            raise NotLsc(f"value at {where} exceeds the {side} limit")
        if against == Ordering.GREATER:
            raise DiscontinuousOnDomain(f"value at {where} lies below the {side} limit")

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


def domain(f: Grid) -> Region | None:
    """The interval on which f is finite, or None where it is nowhere
    finite; for an operator, the hull of its domain."""
    live = f.live_slices()
    if not live:
        return None
    s0, s1 = live[0], live[-1]
    lo = f.breakpoints[(s0 - 1) // 2] if s0 > 0 else -INF
    hi = f.breakpoints[s1 // 2] if s1 < 2 * len(f.breakpoints) else INF
    return Region(lo, hi, s0 % 2 == 1, s1 % 2 == 1)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


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
    return (varname, *_assemble_parts(branches, env, varname))


def _parse_body(ts: TokenStream, varname: str, bare: bool):
    """A branch body: an expression, or None for inf inside pw{...}."""
    t = ts.peek()
    if not bare and t.kind == "IDENT" and t.text == "inf":
        ts.next()
        return None
    return rebind_var(_parse_expr(ts), varname)


def _assemble_parts(branches, env: AssumptionEnv, varname: str):
    """Breakpoints, pieces and values of parsed branches, laid out by
    ``grid.cover_bodies``, which resolves their absolute values."""
    bps, cells, at, pieces = cover_bodies(branches, env, varname)
    values: list = []
    for j, b in enumerate(bps):
        k = at[j]
        if k is None:
            values.append(_default_value(pieces, bps, j, env))
        elif branches[k][1] is None:
            values.append(INF)
        else:
            owned = [(side, pieces[c]) for side, c in (("right", j + 1), ("left", j)) if cells[c] == k]
            values.append(_closed_end_value(owned[0][1] if owned else branches[k][1], owned, b, env))
    return bps, pieces, values


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
