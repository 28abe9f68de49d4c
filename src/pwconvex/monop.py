"""Set-valued monotone operators on the real line.

An operator is a breakpoint grid (see grid.py) whose pieces are
single-valued bodies, constant or strictly increasing, or the empty map,
and whose breakpoint values are closed SetValues.  Parsing certifies
each piece (``classify_op_piece``); construction stores the bodies only
(a piece is constant where its body is free of the variable,
``op_piece_kind``), merges redundant breakpoints, and checks graph
monotonicity by chaining slice bounds from left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import numeric
from .assumptions import AssumptionEnv, EMPTY_ENV, Ordering
from .errors import (
    EmptyOperator,
    InputError,
    InternalInconsistency,
    NegativeScalar,
    NotMonotone,
    ParseError,
    UndecidableComparison,
    UnsupportedOperation,
)
from .expr import (
    Add,
    Expr,
    Mul,
    TokenStream,
    X,
    ZERO,
    as_expr,
    contains_var,
    differentiate,
    substitute,
    to_text,
    _parse_expr,
)
from .grid import (
    Grid,
    Piece,
    certify,
    checked_breakpoints,
    cover,
    limits_beside,
    merge_seamless,
    parse_branches,
    piece_body,
    rebind_var,
    sorted_unique,
)
from .inverse import check_strictly_monotone, invert_monotone
from .limits import limit_at
from .pwf import PiecewiseFunction
from .simplify import simplify

INF = math.inf

KIND_CONSTANT = "constant"
KIND_MONOTONE = "strict-monotone"
KIND_EMPTY = "empty"


# ---------------------------------------------------------------------------
# Set values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetValue:
    """Closed value set at one point: empty, a point, a closed interval
    with possibly infinite endpoints, or the whole line."""

    tag: str  # "empty" | "point" | "interval" | "all"
    lo: Expr | float | None = None  # float only for -inf
    hi: Expr | float | None = None  # float only for +inf

    def bounds(self) -> tuple[Expr | float, Expr | float] | None:
        """(inf, sup) in the extended reals; None for the empty set."""
        if self.tag == "empty":
            return None
        if self.tag == "all":
            return -INF, INF
        return self.lo, self.hi

    def __str__(self) -> str:
        from .render import render_set

        return render_set(self)


EMPTY_SET = SetValue("empty")
ALL_REALS = SetValue("all")


def point(v) -> SetValue:
    e = simplify(as_expr(v))
    return SetValue("point", e, e)


def interval(lo, hi, env: AssumptionEnv = EMPTY_ENV) -> SetValue:
    """Closed interval with the degenerate collapses: upper bound -inf
    or lower bound +inf is the empty set (the usual min/max-of-nothing
    conventions), two infinite bounds are the whole line, and equal
    bounds are a point."""
    lo_inf = isinstance(lo, float) and math.isinf(lo)
    hi_inf = isinstance(hi, float) and math.isinf(hi)
    if (lo_inf and lo > 0) or (hi_inf and hi < 0):
        return EMPTY_SET
    if lo_inf and hi_inf:
        return ALL_REALS
    lo_e = -INF if lo_inf else simplify(as_expr(lo))
    hi_e = INF if hi_inf else simplify(as_expr(hi))
    if not lo_inf and not hi_inf:
        order = numeric.order(env, lo_e, hi_e)
        if order == Ordering.GREATER:
            return EMPTY_SET
        if order == Ordering.EQUAL:
            return SetValue("point", lo_e, lo_e)
    return SetValue("interval", lo_e, hi_e)


def _ext_add(a, b):
    if isinstance(a, float) and math.isinf(a):
        return a
    if isinstance(b, float) and math.isinf(b):
        return b
    return simplify(Add(as_expr(a), as_expr(b)))


def _ext_scale(lam: Expr, a):
    if isinstance(a, float) and math.isinf(a):
        return a
    return simplify(Mul(lam, as_expr(a)))


def sv_add(a: SetValue, b: SetValue, env: AssumptionEnv) -> SetValue:
    """Minkowski sum; empty absorbs, the whole line absorbs nonempty."""
    if a.tag == "empty" or b.tag == "empty":
        return EMPTY_SET
    if a.tag == "all" or b.tag == "all":
        return ALL_REALS
    (alo, ahi), (blo, bhi) = a.bounds(), b.bounds()
    return interval(_ext_add(alo, blo), _ext_add(ahi, bhi), env)


def sv_scale(v: SetValue, lam: Expr, env: AssumptionEnv) -> SetValue:
    """lam * v for lam > 0 under env."""
    if v.tag in ("empty", "all"):
        return v
    lo, hi = v.bounds()
    return interval(_ext_scale(lam, lo), _ext_scale(lam, hi), env)


def sv_hull(values: list[SetValue], env: AssumptionEnv) -> SetValue:
    """Smallest closed interval containing every given value."""
    vals = [v for v in values if v.tag != "empty"]
    if not vals:
        return EMPTY_SET
    if any(v.tag == "all" for v in vals):
        return ALL_REALS
    lo, hi = vals[0].bounds()
    for v in vals[1:]:
        l2, h2 = v.bounds()
        if numeric.order(env, lo, l2) == Ordering.GREATER:
            lo = l2
        if numeric.order(env, hi, h2) == Ordering.LESS:
            hi = h2
    return interval(lo, hi, env)


def sv_substitute(v: SetValue, params: dict | None) -> SetValue:
    if not params or v.tag in ("empty", "all"):
        return v
    lo = v.lo if isinstance(v.lo, float) else simplify(substitute(v.lo, params=params))
    hi = v.hi if isinstance(v.hi, float) else simplify(substitute(v.hi, params=params))
    return SetValue(v.tag, lo, hi)


# ---------------------------------------------------------------------------
# The operator type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneOperator(Grid):
    """A monotone operator: each piece is a constant or strictly
    increasing body, or empty, and each breakpoint value is a SetValue."""

    @staticmethod
    def value_empty(v) -> bool:
        return v.tag == "empty"

    @staticmethod
    def value_point(v) -> Expr | None:
        return v.lo if v.tag == "point" else None

    @staticmethod
    def piece_value(body: Expr | None) -> SetValue:
        return EMPTY_SET if body is None else point(body)

    def __str__(self) -> str:
        from .render import render_operator

        return render_operator(self)


def classify_op_piece(body: Expr, env: AssumptionEnv, lo, hi, varname: str = "x") -> str:
    """Constant vs strictly increasing on (lo, hi); NotMonotone otherwise."""
    if contains_var(body) and check_strictly_monotone(body, env, lo, hi, varname) < 0:
        raise NotMonotone(f"piece {to_text(body, varname)} is decreasing")
    return op_piece_kind(body)


def op_piece_kind(body: Expr | None) -> str:
    """The kind of an operator piece read from its body (None for the empty
    map): constant when free of the variable, else strictly monotone."""
    if body is None:
        return KIND_EMPTY
    return KIND_MONOTONE if contains_var(body) else KIND_CONSTANT


def build_operator(
    varname: str,
    breakpoints: list[Expr],
    pieces: list,
    values: list[SetValue],
    env: AssumptionEnv = EMPTY_ENV,
) -> MonotoneOperator:
    """Normalize and monotonicity-check; the only constructor used by
    parsing and by the operator calculus."""
    bps = checked_breakpoints(breakpoints, pieces, values, env)
    normd = [Piece(body) for body in map(piece_body, pieces)]
    T = MonotoneOperator(varname, *merge_seamless(MonotoneOperator, bps, normd, list(values), env), env)
    validate_operator(T)
    return T


def _piece_bounds(p: Piece, lo, hi, env: AssumptionEnv):
    """(inf, sup) of the single-valued body over the open interval.
    None stands for a bound the limit machinery cannot produce (opaque
    numeric bodies); callers must treat it as unknown, not infinite."""
    if not contains_var(p.body):
        return p.body, p.body
    try:
        a = limit_at(p.body, lo, "right", env)
    except UnsupportedOperation:
        a = None
    try:
        b = limit_at(p.body, hi, "left", env)
    except UnsupportedOperation:
        b = None
    return a, b


def _fmt_end(v) -> str:
    if isinstance(v, float):
        return "-inf" if v < 0 else "inf"
    return to_text(v)


def validate_operator(T: MonotoneOperator) -> None:
    """Graph monotonicity: slice bounds (pieces and breakpoint values
    interleaved) must be nondecreasing from left to right, and strictly
    increasing across each non-constant piece."""
    env = T.env
    prev_sup = None
    prev_where = None

    def step(lo_v, hi_v, where: str):
        nonlocal prev_sup, prev_where
        if prev_sup is not None and lo_v is not None and numeric.less(env, lo_v, prev_sup):
            raise NotMonotone(f"operator values decrease from {prev_where} to {where}")
        if hi_v is not None:
            # an unknown sup keeps the last known one: a weaker but
            # still sound necessary condition for the later slices
            prev_sup, prev_where = hi_v, where

    for s in T.live_slices():
        if s % 2:
            lo_v, hi_v = T.values[s // 2].bounds()
            step(lo_v, hi_v, f"the value at {to_text(T.breakpoints[s // 2])}")
        else:
            lo, hi = T.interval(s // 2)
            p = T.pieces[s // 2]
            a, b = _piece_bounds(p, lo, hi, env)
            cell_text = f"({_fmt_end(lo)}, {_fmt_end(hi)})"
            if contains_var(p.body) and None not in (a, b):
                # a certified piece fails here only where its samples missed a fall
                if numeric.order(env, a, b) in (Ordering.EQUAL, Ordering.GREATER):
                    raise NotMonotone(f"piece {to_text(p.body, T.varname)} is not strictly increasing on"
                                      f" {cell_text}: its end limits do not rise")
            step(a, b, f"the piece on {cell_text}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_op(T: MonotoneOperator, x, params: dict | None = None) -> SetValue:
    """Value set at x."""
    params_e = {k: as_expr(v) for k, v in params.items()} if params else None
    xe = simplify(substitute(as_expr(x), params=params_e)) if params_e else simplify(as_expr(x))
    where, i = T.locate(xe, params_e)
    if where == "breakpoint":
        return sv_substitute(T.values[i], params_e)
    p = T.pieces[i]
    if p.empty:
        return EMPTY_SET
    return point(numeric.body_at(p.body, xe, T.env, params_e or {}))


# ---------------------------------------------------------------------------
# The operator calculus
# ---------------------------------------------------------------------------


def subdifferential(f: PiecewiseFunction) -> MonotoneOperator:
    """The slope multifunction of f: differentiated bodies on pieces,
    the closed interval between one-sided derivative limits at
    breakpoints, empty outside the domain, half-lines or the whole
    line at domain boundary points."""
    env = f.env
    pieces = [None if p.empty else simplify(differentiate(p.body)) for p in f.pieces]
    values: list[SetValue] = []
    for i, b in enumerate(f.breakpoints):
        v = f.values[i]
        if isinstance(v, float) and math.isinf(v):
            values.append(EMPTY_SET)
            continue
        left, right = pieces[i], pieces[i + 1]
        lo = -INF if left is None else limit_at(left, b, "left", env)
        hi = INF if right is None else limit_at(right, b, "right", env)
        values.append(interval(lo, hi, env))
    return build_operator(f.varname, list(f.breakpoints), pieces, values, env)


def identity_operator(varname: str = "x", env: AssumptionEnv = EMPTY_ENV) -> MonotoneOperator:
    return build_operator(varname, [], [X], [], env)


def _as_scalar(lam) -> Expr:
    """lam as a simplified expression; it must not contain the variable."""
    if isinstance(lam, str):
        from .expr import parse_expr

        lam = parse_expr(lam)
    lam_e = simplify(as_expr(lam))
    if contains_var(lam_e):
        raise InputError(f"scalar {to_text(lam_e)} must not contain the variable")
    return lam_e


def scale(T: MonotoneOperator, lam) -> MonotoneOperator:
    """Graph scaling (x, u) -> (x, lam*u) for lam >= 0; lam = 0 sends
    every point of the domain to {0}."""
    env = T.env
    lam_e = _as_scalar(lam)
    sgn = env.sign_of(lam_e)
    if sgn is None:
        raise UndecidableComparison(to_text(lam_e), "0")
    if sgn < 0:
        raise NegativeScalar(f"scale factor {to_text(lam_e)} is negative")
    if sgn == 0:
        pieces = [None if p.empty else ZERO for p in T.pieces]
        values = [EMPTY_SET if v.tag == "empty" else point(0) for v in T.values]
        return build_operator(T.varname, list(T.breakpoints), pieces, values, env)
    pieces = [None if p.empty else Mul(lam_e, p.body) for p in T.pieces]
    values = [sv_scale(v, lam_e, env) for v in T.values]
    return build_operator(T.varname, list(T.breakpoints), pieces, values, env)


def add(T1: MonotoneOperator, T2: MonotoneOperator) -> MonotoneOperator:
    """Pointwise Minkowski sum on the merged breakpoint grid."""
    if T1.varname != T2.varname:
        raise InputError(f"cannot add operators in {T1.varname} and {T2.varname}")
    env = T1.env.merge(T2.env)
    bps = sorted_unique(T1.breakpoints + T2.breakpoints, env)

    def merged_cells(T: MonotoneOperator) -> list[Piece]:
        """T's piece on each cell of the merged grid, which starts at -inf
        or at a merged breakpoint."""
        out = [T.pieces[0]]
        for b in bps:
            where, i = T.locate(b, env=env)
            out.append(T.pieces[i + 1 if where == "breakpoint" else i])
        return out

    pieces = [None if p1.empty or p2.empty else Add(p1.body, p2.body)
              for p1, p2 in zip(merged_cells(T1), merged_cells(T2))]
    values = [sv_add(T1.at(b, env), T2.at(b, env), env) for b in bps]
    return build_operator(T1.varname, bps, pieces, values, env)


def _toggle(varname: str) -> str:
    return "y" if varname == "x" else "x"


def _as_endpoint(v):
    """Normalize a limit result to an Expr or a +-inf float."""
    if isinstance(v, float):
        return v if math.isinf(v) else as_expr(v)
    return v


def invert(T: MonotoneOperator) -> MonotoneOperator:
    """Graph flip, built in one pass over the live slices of T from left
    to right, the order in which their images rise.  A constant piece
    adds the closed hull of its interval at its value; a strictly
    monotone body is inverted on its image interval; a value at the
    breakpoint b adds {b} at each finite end and, unless it is a point,
    is the constant piece b between its ends.  Each new image point is
    compared with the last one only: equal points merge by hull."""
    env = T.env
    bps: list[Expr] = []  # image points, increasing
    values: list[SetValue] = []
    pieces: list[Expr | None] = [None]  # the last cell is open

    def overlap() -> InternalInconsistency:
        return InternalInconsistency("inverse pieces overlap; the input graph was not monotone")

    def add(y: Expr, part: SetValue) -> None:
        """Add part to the value at the image point y."""
        order = env.require_comparable(bps[-1], y) if bps else Ordering.LESS
        if order == Ordering.GREATER:
            raise overlap()
        if order == Ordering.LESS:
            bps.append(y)
            values.append(part)
            pieces.append(None)
        elif values[-1].tag == "empty":
            values[-1] = part
        elif part.tag != "empty":
            values[-1] = sv_hull([values[-1], part], env)

    def span(lo, hi, body: Expr, part: SetValue) -> None:
        """The inverse is body on the image interval (lo, hi); part is
        added at each finite end."""
        if isinstance(lo, Expr):
            add(lo, part)
        elif bps:
            raise overlap()
        if pieces[-1] is not None:
            raise overlap()
        pieces[-1] = body
        if isinstance(hi, Expr):
            add(hi, part)

    for s in T.live_slices():
        if s % 2:
            b, v = T.breakpoints[s // 2], T.values[s // 2]
            lo, hi = v.bounds()
            if v.tag == "point":
                add(lo, point(b))
            else:
                span(lo, hi, b, point(b))
            continue
        p = T.pieces[s // 2]
        lo, hi = T.interval(s // 2)
        if not contains_var(p.body):
            add(p.body, interval(lo, hi, env))
            continue
        a = _as_endpoint(limit_at(p.body, lo, "right", env))
        b = _as_endpoint(limit_at(p.body, hi, "left", env))
        span(a, b, invert_monotone(p.body, env, lo, hi), EMPTY_SET)
    return build_operator(_toggle(T.varname), bps, pieces, values, env)


def resolvent(T: MonotoneOperator, lam) -> MonotoneOperator:
    """(identity + lam*T)^(-1) for lam > 0; single-valued on its
    domain whenever the input is monotone (checked).  identity + lam*T
    is built in one pass on T's grid, and validated, before the flip."""
    env = T.env
    lam_e = _as_scalar(lam)
    sgn = env.sign_of(lam_e)
    if sgn is None:
        raise UndecidableComparison(to_text(lam_e), "0")
    if sgn <= 0:
        raise NegativeScalar(f"resolvent step must be positive, got {to_text(lam_e)}")
    pieces = [None if p.empty else Add(X, Mul(lam_e, p.body)) for p in T.pieces]
    values = [sv_add(point(b), sv_scale(v, lam_e, env), env) for b, v in zip(T.breakpoints, T.values)]
    R = invert(build_operator(T.varname, list(T.breakpoints), pieces, values, env))
    for j, v in enumerate(R.values):
        if v.tag in ("interval", "all"):
            raise InternalInconsistency(f"resolvent is multivalued at {to_text(R.breakpoints[j])}")
    return R


def prox(f: PiecewiseFunction, lam) -> MonotoneOperator:
    """Proximal map as the resolvent of the subdifferential."""
    return resolvent(subdifferential(f), lam)


def maximal_extension(T: MonotoneOperator) -> MonotoneOperator:
    """Largest monotone operator containing T's graph: integrate a
    selection of T and take the subdifferential of the result."""
    if all(p.empty for p in T.pieces) and all(v.tag == "empty" for v in T.values):
        raise EmptyOperator("cannot extend an operator with empty graph")
    from .conv import integ

    return subdifferential(integ(T))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_endpoint(ts: TokenStream, side: str, varname: str):
    t = ts.peek()
    if t.kind == "IDENT" and t.text == "inf":
        if side != "hi":
            raise ParseError("the lower endpoint cannot be +inf", t.offset)
        ts.next()
        return INF
    if t.kind == "OP" and t.text == "-" and ts.peek(1).kind == "IDENT" and ts.peek(1).text == "inf":
        if side != "lo":
            raise ParseError("the upper endpoint cannot be -inf", t.offset)
        ts.next()
        ts.next()
        return -INF
    return rebind_var(_parse_expr(ts), varname)


def _parse_setval(ts: TokenStream, varname: str, bare: bool) -> tuple:
    """A branch value; a bare input is a single {body} or an expression."""
    if bare and not ts.at_op("{"):
        return ("body", rebind_var(_parse_expr(ts), varname))
    t = ts.peek()
    if t.kind == "IDENT" and t.text in ("all", "empty"):
        ts.next()
        return (t.text,)
    if ts.at_op("{"):
        ts.next()
        items = [rebind_var(_parse_expr(ts), varname)]
        while ts.at_op(","):
            ts.next()
            items.append(rebind_var(_parse_expr(ts), varname))
        ts.expect_op("}")
        return ("body", items[0]) if len(items) == 1 else ("set", items)
    if ts.at_op("["):
        ts.next()
        lo = _parse_endpoint(ts, "lo", varname)
        ts.expect_op(",")
        hi = _parse_endpoint(ts, "hi", varname)
        ts.expect_op("]")
        return ("interval", lo, hi)
    raise ts.error(("'{'", "'['", "'all'", "'empty'"))


def parse_operator(text: str, env: AssumptionEnv = EMPTY_ENV) -> MonotoneOperator:
    """Parse the operator DSL sd{ guard -> value ; ... }.  A bare
    expression, or a single {body}, means one piece covering the whole
    line.  Pieces are certified here, once (``classify_op_piece``)."""
    branches, varname = parse_branches(text, env, "sd", _parse_setval)
    bps, cells, at = cover(branches, env)
    pieces: list[Expr | None] = []
    for sv in cells:
        if sv[0] not in ("empty", "body"):
            raise InputError("interval, set, and 'all' values may only appear at single points")
        pieces.append(sv[1] if sv[0] == "body" else None)
    values = [
        _default_op_value(pieces, bps, j, env) if sv is None else _setval_at(sv, b, env)
        for j, (b, sv) in enumerate(zip(bps, at))
    ]
    certify(bps, pieces, env, classify_op_piece, varname)
    return build_operator(varname, bps, pieces, values, env)


def _setval_at(sv: tuple, b: Expr, env: AssumptionEnv) -> SetValue:
    """Materialize a parsed value at the point b; the variable, when it
    appears inside the value, stands for that point."""
    if sv[0] == "empty":
        return EMPTY_SET
    if sv[0] == "all":
        return ALL_REALS
    if sv[0] == "body":
        return point(simplify(substitute(sv[1], var=b)))
    if sv[0] == "set":
        return sv_hull([point(substitute(e, var=b)) for e in sv[1]], env)
    _, lo, hi = sv
    lo = lo if isinstance(lo, float) else simplify(substitute(lo, var=b))
    hi = hi if isinstance(hi, float) else simplify(substitute(hi, var=b))
    return interval(lo, hi, env)


def _default_op_value(pieces, bps, j, env: AssumptionEnv) -> SetValue:
    """Closure fill at an omitted breakpoint: the interval between the
    finite one-sided limits of the adjacent bodies."""
    L, R = limits_beside(pieces, bps, j, env)
    if L is None or R is None:
        return EMPTY_SET if L is None and R is None else point(L if R is None else R)
    return interval(L, R, env)
