"""Risk functionals of a scalar random variable.

A distribution enters either as a cumulative distribution function
(piecewise DSL, jumps allowed where a guard covers the point) or as a
quantile expression on (0, 1).  Internally both become the same thing:
the monotone operator whose graph is the CDF with vertical segments
filled in at jumps.  From there the toolkit takes over: the
superexpectation E(x) = E[max(x, X)] is the antiderivative of that
operator with its constant pinned by E(x) - x -> 0 at +inf, the
superdistribution is dE, quantiles invert the CDF with min selection,
and the superquantile (CVaR) is (E(q) - p*q)/(1 - p) at the quantile q,
the Rockafellar-Uryasev formula (Rockafellar and Uryasev, J. Risk 2,
2000; Rockafellar and Royset, Math. Program. 148, 2014).  It is the
paper's secant slope -E*(p)/(1-p) by Fenchel-Young equality, since p
lies in dE(q), so no conjugate is built for it; E* itself is
``superexpectation_conjugate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import numeric
from .assumptions import AssumptionEnv, EMPTY_ENV
from .conv import _shift_by, conjugate, integ
from .errors import (
    InputError,
    InternalInconsistency,
    NoFirstMoment,
    POutOfRange,
    UnsupportedOperation,
    UnsupportedTail,
)
from .expr import (
    Div,
    Expr,
    Mul,
    Neg,
    ONE,
    Sub,
    X,
    ZERO,
    as_expr,
    contains_var,
    to_text,
)
from .grid import certify, detect_varname, kept, rebind_var
from .inverse import solve_monotone
from .limits import limit_at, limit_at_infinity, one_sided_limit
from .monop import (
    MonotoneOperator,
    build_operator,
    classify_op_piece,
    interval,
    invert,
    maximal_extension,
    subdifferential,
)
from .pwf import PiecewiseFunction, parse_piecewise_map
from .simplify import simplify

INF = math.inf


# ---------------------------------------------------------------------------
# Distribution specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """A distribution, normalized to its jump-filled CDF operator.

    quantile_expr is kept when the input was a quantile function; the
    quantile query then uses it directly instead of inverting the CDF.
    """

    cdf_op: MonotoneOperator
    quantile_expr: Expr | None
    env: AssumptionEnv
    # transforms of this distribution, read and kept through ``grid.kept``
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def from_cdf(source: str, env: AssumptionEnv = EMPTY_ENV) -> "DistributionSpec":
        varname, bps, bodies, values = parse_piecewise_map(source, env)
        return DistributionSpec(_cdf_operator(varname, bps, bodies, values, env), None, env)

    @staticmethod
    def from_quantile(source: str, env: AssumptionEnv = EMPTY_ENV) -> "DistributionSpec":
        from .expr import parse_expr

        q = rebind_var(parse_expr(source), detect_varname(source))
        # _quantile_operator certifies that q is nondecreasing on (0, 1)
        op = _quantile_operator(simplify(q), env)
        return DistributionSpec(invert(maximal_extension(op)), simplify(q), env)


def _cdf_operator(varname, bps, bodies, values, env: AssumptionEnv) -> MonotoneOperator:
    if any(b is None for b in bodies) or any(isinstance(v, float) and math.isinf(v) for v in values):
        raise InputError("a distribution function must be finite everywhere")
    # tails: 0 at -inf, 1 at +inf
    try:
        left = limit_at_infinity(bodies[0], -1, env)
        right = limit_at_infinity(bodies[-1], 1, env)
    except UnsupportedOperation as exc:
        raise InputError(f"cannot settle the tails of the distribution function: {exc}") from exc
    if not numeric.equal(env, left, ZERO):
        raise InputError("the distribution function must tend to 0 at -inf")
    if not numeric.equal(env, right, ONE):
        raise InputError("the distribution function must tend to 1 at +inf")
    op_values = []
    for i, b in enumerate(bps):
        L = one_sided_limit(bodies[i], b, "left", env)
        R = one_sided_limit(bodies[i + 1], b, "right", env)
        if isinstance(L, float) or isinstance(R, float):
            raise InputError(f"the distribution function is unbounded beside {to_text(b)}")
        if not numeric.equal(env, values[i], R):
            raise InputError(
                f"a distribution function is right-continuous: the value at {to_text(b)}"
                " must equal the limit from the right"
            )
        if numeric.less(env, R, L):
            raise InputError(f"the distribution function decreases across {to_text(b)}")
        op_values.append(interval(L, R, env))
    certify(bps, bodies, env, classify_op_piece, varname)
    return build_operator(varname, list(bps), list(bodies), op_values, env)


def _quantile_operator(q: Expr, env: AssumptionEnv) -> MonotoneOperator:
    """q on (0,1) as an operator, closures at the edge breakpoints."""
    lo_v = one_sided_limit(q, ZERO, "right", env) if contains_var(q) else q
    hi_v = one_sided_limit(q, ONE, "left", env) if contains_var(q) else q
    bps, pieces = [ZERO, ONE], [None, q, None]
    certify(bps, pieces, env, classify_op_piece, "p")
    return build_operator(
        "p",
        bps,
        pieces,
        [interval(lo_v, lo_v, env), interval(hi_v, hi_v, env)],
        env,
    )


# ---------------------------------------------------------------------------
# Superexpectation and superdistribution
# ---------------------------------------------------------------------------


def superexpectation(d: DistributionSpec) -> PiecewiseFunction:
    """E(x) = E[max(x, X)]: antiderivative of the CDF operator, with the
    constant fixed by E(x) - x -> 0 at +inf.  Built once per d and kept
    on it (``grid.kept``), so each superquantile of d reuses it."""
    return kept(d, "superexpectation", lambda: _superexpectation(d))


def _superexpectation(d: DistributionSpec) -> PiecewiseFunction:
    E0 = integ(d.cdf_op)
    drift = simplify(Sub(E0.pieces[-1].body, X))
    try:
        m = limit_at_infinity(drift, 1, d.env)
    except UnsupportedOperation as exc:
        raise UnsupportedTail(f"cannot pin the superexpectation constant: {exc}") from exc
    if isinstance(m, float):
        if math.isinf(m):
            if m < 0:
                raise NoFirstMoment("the upper tail of the distribution has no finite mean")
            raise InternalInconsistency("E(x) - x grows at +inf for a distribution function")
        m = as_expr(Fraction(m))
    return _shift_by(E0, simplify(Neg(m)))


def superdistribution(d: DistributionSpec) -> MonotoneOperator:
    """The CDF with jump intervals, realized as the subdifferential of
    the superexpectation; right endpoints reproduce the CDF."""
    return subdifferential(superexpectation(d))


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------


def _check_p(p, env: AssumptionEnv) -> Expr:
    pe = simplify(as_expr(p))
    if contains_var(pe):
        raise InputError("the probability level must not contain the variable")
    if not numeric.less(env, ZERO, pe) or not numeric.less(env, pe, ONE):
        raise POutOfRange(f"p = {to_text(pe)} is not strictly inside (0, 1)")
    return pe


def quantile(d: DistributionSpec, p) -> Expr:
    """min{x : F(x) >= p}; symbolic inverse on strictly increasing
    pieces, left edge on flats."""
    pe = _check_p(p, d.env)
    if d.quantile_expr is not None:
        return numeric.body_at(d.quantile_expr, pe, d.env)
    T = d.cdf_op
    env = d.env
    for i, piece in enumerate(T.pieces):
        lo, hi = T.interval(i)
        if not piece.empty:
            body = piece.body
            if not contains_var(body):
                if not numeric.less(env, body, pe):
                    if isinstance(lo, float):
                        raise InternalInconsistency(
                            "the distribution function reaches p on an unbounded flat"
                        )
                    return lo
            else:
                sup = limit_at(body, hi, "left", env)
                if not numeric.less(env, sup, pe):
                    return solve_monotone(body, pe, env, lo, hi)
        if i < len(T.breakpoints):
            v = T.values[i]
            bounds = v.bounds()
            if bounds is not None and not numeric.less(env, bounds[1], pe):
                return T.breakpoints[i]
    raise InternalInconsistency("no point reaches the level p; the tail checks are broken")


def superquantile(d: DistributionSpec, p) -> Expr:
    """Tail average of the quantile, (E(q) - p*q)/(1 - p) at q = quantile(d, p).

    This is the Rockafellar-Uryasev formula (Rockafellar and Uryasev,
    "Optimization of conditional value-at-risk", J. Risk 2, 2000;
    Rockafellar and Royset, Math. Program. 148, 2014).  It equals the
    secant slope -E*(p)/(1-p) of the paper: p lies in dE(q) exactly when
    q is in the quantile set at p, so Fenchel-Young holds with equality,
    E*(p) = p*q - E(q), and E* itself is never built."""
    pe = _check_p(p, d.env)
    q = quantile(d, pe)
    v = superexpectation(d).at(q)
    if isinstance(v, float):
        raise InternalInconsistency("the superexpectation is infinite at the quantile")
    return simplify(Div(Sub(v, Mul(pe, q)), Sub(ONE, pe)))


def cvar(d: DistributionSpec, p) -> Expr:
    """Conditional value-at-risk; same number as the superquantile."""
    return superquantile(d, p)


def superexpectation_conjugate(d: DistributionSpec) -> PiecewiseFunction:
    """E* in the probability variable; domain [0, 1]."""
    return replace(conjugate(superexpectation(d)), varname="p")
