"""One-sided limits of expressions at finite points and at infinity.

The callers need two things kept separate:

* exact symbolic limits wherever plain substitution (or a removable
  scale cancellation like x*ln(x) -> 0) decides the value, because
  these limits become breakpoints and stored function values;
* a sound +inf/-inf verdict at poles and unbounded ends, where only
  the sign matters.

The structural pass works on the canonical sum-of-products form and
applies the usual growth hierarchy (exp beats powers beat logs).  It
also takes the numeric nodes at the ends they are built to meet:

* an implicit inverse g^-1, g increasing on (lo, hi), at a point x0
  that g tends to at an end of (lo, hi): from the right where
  g(lo+) = x0 exactly, g^-1 tends to lo, and from the left where
  g(hi-) = x0, to hi, because a monotone inverse is continuous on its
  image (Rockafellar, *Convex Analysis*, 1970, Cor. 7.5.1).  At a
  finite end 0 it tends to 0 from the side of the cell (+ at lo, - at
  hi); at an infinite end it diverges at an unknown ("opaque") rate;
* a NumericIntegral at its own base is 0 (``conv.integ`` bases each
  one at a cell end where it can).

A numeric probe under a feasible parameter binding (``_probe``,
sampling the body near the point) is the last resort, for what the
structural pass cannot decide: an implicit inverse at a point inside
its image or off its ends, a NumericIntegral away from its base, a
zero-infinity race that involves either, and a coefficient whose sign
the facts leave open (ROADMAP 2i).  It returns floats and is good
enough for guardrails but is never used to fabricate an "exact" value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal

from . import numeric
from .assumptions import AssumptionEnv
from .errors import DomainError, UnboundParameter, UnsupportedOperation
from .expr import (
    Abs,
    Add,
    Const,
    Exp,
    Expr,
    ImplicitInverse,
    Ln,
    Mul,
    Number,
    NumericIntegral,
    Pow,
    Sub,
    Var,
    ZERO,
    _has_node,
    contains_var,
    pow_sign,
    substitute,
    to_text,
)
from .simplify import as_terms, is_zero, simplify

POS_INF = math.inf
NEG_INF = -math.inf

Side = Literal["left", "right"]

# internal verdict for one multiplicative factor
_FINITE = "finite"  # nonzero, value known symbolically
_ZERO = "zero"  # tends to 0; .sign records the approach side
_POS_INF = "posinf"
_NEG_INF = "neginf"


class _FactorLimit:
    __slots__ = ("kind", "value", "sign", "scale")

    def __init__(self, kind: str, value: Expr | None = None, sign: int = 0, scale: str = "pow"):
        self.kind = kind
        self.value = value
        self.sign = sign  # for _ZERO: side of approach; for infs: +-1
        self.scale = scale  # "exp" | "pow" | "log"


def _probe_points(x0: float | None, side: Side | None, direction: int | None):
    if x0 is not None:
        unit = 1.0 + abs(x0)
        sgn = 1.0 if side == "right" else -1.0
        return [x0 + sgn * unit * 2.0 ** (-k) for k in range(8, 44, 3)]
    sgn = 1.0 if direction and direction > 0 else -1.0
    return [sgn * 2.0 ** k for k in range(6, 48, 3)]


def _probe(e: Expr, env: AssumptionEnv, x0: float | None, side: Side | None, direction: int | None) -> float:
    params = numeric.binding(env)
    vals = [v for x in _probe_points(x0, side, direction) if (v := numeric.at(e, params, x)) is not None]
    if len(vals) < 4:
        raise UnsupportedOperation(f"cannot determine limit of {to_text(e)} numerically")
    tail = vals[-4:]
    mags = [abs(v) for v in tail]
    if mags[-1] > 1e9 and mags[-1] >= mags[0] and all(m > 1e6 for m in mags):
        return POS_INF if tail[-1] > 0 else NEG_INF
    spread = max(tail) - min(tail)
    if spread <= 1e-5 * (1.0 + abs(tail[-1])):
        return tail[-1]
    raise UnsupportedOperation(f"limit of {to_text(e)} does not settle numerically")


def _sign_of_value(env: AssumptionEnv, v: Expr) -> int | None:
    s = env.sign_of(v)
    if s is not None:
        return s
    return numeric.sign(v, env) or None


def _factor_limit(base: Expr, env: AssumptionEnv, x0: Expr | None, side: Side | None,
                  direction: int | None) -> _FactorLimit | None:
    """Limit verdict for one factor base (exponent handled by caller)."""
    if isinstance(base, Pow):
        inner = _factor_limit(base.base, env, x0, side, direction)
        if inner is None:
            return None
        return _apply_exponent(inner, base.exponent, base.base, env, x0, side, direction)
    if not contains_var(base):
        if is_zero(base):
            return _FactorLimit(_ZERO, sign=0)
        return _FactorLimit(_FINITE, value=simplify(base))
    if isinstance(base, Var):
        if x0 is not None:
            if is_zero(x0):
                return _FactorLimit(_ZERO, sign=1 if side == "right" else -1)
            return _FactorLimit(_FINITE, value=simplify(x0))
        return _FactorLimit(_POS_INF if direction > 0 else _NEG_INF, sign=1 if direction > 0 else -1)
    if isinstance(base, Exp):
        arg = _limit_core(base.arg, env, x0, side, direction)
        if arg is None:
            return None
        if isinstance(arg, Expr):
            return _FactorLimit(_FINITE, value=simplify(Exp(arg)))
        if arg == POS_INF:
            return _FactorLimit(_POS_INF, sign=1, scale="exp")
        return _FactorLimit(_ZERO, sign=1, scale="exp")
    if isinstance(base, Ln):
        arg = _limit_core(base.arg, env, x0, side, direction)
        if arg is None:
            return None
        if isinstance(arg, Expr):
            if is_zero(arg):
                return _FactorLimit(_NEG_INF, sign=-1, scale="log")
            sgn = _sign_of_value(env, arg)
            if sgn is None or sgn < 0:
                return None
            return _FactorLimit(_FINITE, value=simplify(Ln(arg)))
        if arg == POS_INF:
            return _FactorLimit(_POS_INF, sign=1, scale="log")
        return None
    if isinstance(base, Abs):
        inner = _factor_limit(base.arg, env, x0, side, direction)
        if inner is None:
            return None
        if inner.kind == _FINITE:
            return _FactorLimit(_FINITE, value=simplify(Abs(inner.value)))
        if inner.kind == _ZERO:
            return _FactorLimit(_ZERO, sign=1, scale=inner.scale)
        return _FactorLimit(_POS_INF, sign=1, scale=inner.scale)
    if isinstance(base, ImplicitInverse):
        if direction is None:
            return _inverse_at_end(base, env, x0, side)
        # a monotone inverse tends to the forward-domain bound
        bound = base.hi if direction > 0 else base.lo
        if isinstance(bound, float) and math.isinf(bound):
            kind = _POS_INF if bound > 0 else _NEG_INF
            # growth rate is unknowable here; "opaque" blocks zero-inf races
            return _FactorLimit(kind, sign=1 if bound > 0 else -1, scale="opaque")
        return _FactorLimit(_FINITE, value=bound)
    if isinstance(base, NumericIntegral):
        # an integral at its own base is 0; elsewhere a quadrature node
        # carries no structure worth mining
        if x0 is not None and is_zero(Sub(base.base, x0)):
            return _FactorLimit(_ZERO, sign=0, scale="opaque")
        return None
    # composite base: take the limit of the whole subtree; its rate is a
    # power's unless it holds exp, ln or a numeric node ("opaque": unknown)
    sub = _limit_core(base, env, x0, side, direction)
    if sub is None:
        return None
    scale = "opaque" if _has_node(base, (Exp, Ln, ImplicitInverse, NumericIntegral)) else "pow"
    if isinstance(sub, Expr):
        if is_zero(sub):
            sgn = _side_sign(base, env, x0, side, direction)
            if sgn is None:
                return None
            return _FactorLimit(_ZERO, sign=sgn, scale=scale)
        return _FactorLimit(_FINITE, value=sub)
    return _FactorLimit(_POS_INF if sub > 0 else _NEG_INF, sign=1 if sub > 0 else -1, scale=scale)


def _inverse_at_end(g: ImplicitInverse, env: AssumptionEnv, x0: Expr, side: Side) -> _FactorLimit | None:
    """g^-1 at x0 from the right when x0 is the forward map's limit at
    its lower end a, from the left when it is its limit at the upper end:
    g^-1 tends to a there.  None at any other point."""
    up = side == "left"
    end = g.hi if up else g.lo  # an Expr, or a float infinity
    if isinstance(end, float):
        at = _limit_core(g.forward, env, None, None, 1 if up else -1)
        # growth rate is unknowable here; "opaque" blocks zero-inf races
        verdict = _FactorLimit(_POS_INF if up else _NEG_INF, sign=1 if up else -1, scale="opaque")
    else:
        end = simplify(end)
        at = _limit_core(g.forward, env, end, side, None)
        if is_zero(end):
            verdict = _FactorLimit(_ZERO, sign=-1 if up else 1, scale="opaque")
        else:
            verdict = _FactorLimit(_FINITE, value=end)
    if isinstance(at, Expr) and is_zero(Sub(at, x0)):
        return verdict
    return None


def _apply_exponent(fl: _FactorLimit, q: Fraction, base: Expr, env: AssumptionEnv,
                    x0: Expr | None, side: Side | None, direction: int | None) -> _FactorLimit | None:
    if q == 0:
        return _FactorLimit(_FINITE, value=Const(Fraction(1)))
    if fl.kind == _FINITE:
        sgn = _sign_of_value(env, fl.value)
        if sgn == 0:
            fl = _FactorLimit(_ZERO, sign=_side_sign(base, env, x0, side, direction) or 0, scale=fl.scale)
        else:
            return _FactorLimit(_FINITE, value=simplify(Pow(fl.value, q)))
    if fl.kind == _ZERO:
        if q > 0:
            return _FactorLimit(_ZERO, sign=pow_sign(fl.sign, q) or 0, scale=fl.scale)
        sgn = pow_sign(fl.sign, q)
        if sgn is None or sgn == 0:
            return None
        return _FactorLimit(_POS_INF if sgn > 0 else _NEG_INF, sign=sgn, scale=fl.scale)
    # infinite base
    inf_sign = 1 if fl.kind == _POS_INF else -1
    if q > 0:
        sgn = pow_sign(inf_sign, q)
        if sgn is None:
            return None
        return _FactorLimit(_POS_INF if sgn > 0 else _NEG_INF, sign=sgn, scale=fl.scale)
    sgn = pow_sign(inf_sign, q)
    return _FactorLimit(_ZERO, sign=sgn or 0, scale=fl.scale)


def _side_sign(e: Expr, env: AssumptionEnv, x0: Expr | None, side: Side | None,
               direction: int | None) -> int | None:
    """Sign of e on the approach side, probed numerically."""
    if x0 is not None:
        x0f = numeric.at(x0, numeric.binding(env))
        if x0f is None:
            return None
        pts = _probe_points(x0f, side, None)
    else:
        pts = _probe_points(None, None, direction)
    return numeric.sign(e, env, pts[-5:])


def _term_limit(coeff: Number, factors, env: AssumptionEnv, x0: Expr | None, side: Side | None,
                direction: int | None):
    """Limit of coeff * prod(f^q).  Returns Expr, +-inf, or None."""
    zeros: list[_FactorLimit] = []
    infs: list[_FactorLimit] = []
    finite_parts: list[Expr] = []
    for f, q in factors:
        fl = _factor_limit(f, env, x0, side, direction)
        if fl is None:
            return None
        fl = _apply_exponent(fl, q, f, env, x0, side, direction)
        if fl is None:
            return None
        if fl.kind == _FINITE:
            finite_parts.append(fl.value)
        elif fl.kind == _ZERO:
            zeros.append(fl)
        else:
            infs.append(fl)
    if zeros and infs:
        # growth hierarchy: exp beats pow beats log
        if any(fl.scale == "opaque" for fl in zeros + infs):
            return None
        rank = {"log": 0, "pow": 1, "exp": 2}
        if max(rank[z.scale] for z in zeros) > max(rank[i.scale] for i in infs):
            return ZERO
        if max(rank[i.scale] for i in infs) > max(rank[z.scale] for z in zeros):
            zeros = []
        else:
            return None  # same scale pulling both ways: cancel structurally unknown
    if zeros:
        return ZERO
    if infs:
        sign = 1 if coeff > 0 else -1
        for fl in infs:
            if fl.sign == 0:
                return None
            sign *= fl.sign
        for part in finite_parts:
            s = _sign_of_value(env, part)
            if s is None or s == 0:
                return None
            sign *= s
        return POS_INF if sign > 0 else NEG_INF
    out: Expr = Const(coeff)
    for part in finite_parts:
        out = Mul(out, part)
    return simplify(out)


def _group_shared_factors(terms):
    """Merge terms that differ only in their monomial part.

    ln(u) - x*ln(u) must collapse to (1 - x)*ln(u) before the per-term
    verdicts, or a removable pairing reads as inf - inf across terms.
    The merged cofactor is a pure polynomial, so its own limit never
    recurses back here with a nonempty shared signature.
    """
    grouped: dict[tuple, list] = {}
    order: list[tuple] = []
    for coeff, factors in terms:
        sig = tuple((f, q) for f, q in factors if not isinstance(f, Var))
        if sig not in grouped:
            grouped[sig] = []
            order.append(sig)
        mono = tuple((f, q) for f, q in factors if isinstance(f, Var))
        grouped[sig].append((coeff, mono))
    out = []
    for sig in order:
        members = grouped[sig]
        if not sig or len(members) == 1:
            for coeff, mono in members:
                out.append((coeff, mono + sig))
            continue
        total: Expr = ZERO
        for coeff, mono in members:
            t: Expr = Const(coeff)
            for f, q in mono:
                t = Mul(t, f if q == 1 else Pow(f, q))
            total = Add(total, t)
        cof = simplify(total)
        if not is_zero(cof):
            out.append((Fraction(1), ((cof, Fraction(1)),) + sig))
    return out


def _limit_core(e: Expr, env: AssumptionEnv, x0: Expr | None, side: Side | None,
                direction: int | None):
    """Structural limit; Expr for finite symbolic, +-inf, or None when
    unknown.  Taken once per environment (``AssumptionEnv.memo``)."""
    s = simplify(e)
    if not contains_var(s):
        return s
    return env.memo(("limit", s, x0, side, direction), lambda: _structural_limit(s, env, x0, side, direction))


def _structural_limit(s: Expr, env: AssumptionEnv, x0: Expr | None, side: Side | None,
                      direction: int | None):
    """``_limit_core`` of a simplified s that contains the variable."""
    # plain substitution first at finite points
    if x0 is not None:
        try:
            sub = simplify(substitute(s, var=x0))
        except DomainError:
            sub = None
        if sub is not None:
            try:
                fv = numeric.at(sub, numeric.binding(env))
            except UnboundParameter:
                return sub  # symbolically defined, parameters left free
            if fv is not None:
                if math.isfinite(fv):
                    return sub
                return POS_INF if fv > 0 else NEG_INF
    try:
        terms = as_terms(s)
    except DomainError:
        return None
    finite_sum: Expr | None = None
    inf_sign = 0
    for coeff, factors in _group_shared_factors(terms):
        tl = _term_limit(coeff, factors, env, x0, side, direction)
        if tl is None:
            return None
        if isinstance(tl, Expr):
            finite_sum = tl if finite_sum is None else simplify(Add(finite_sum, tl))
            continue
        this = 1 if tl > 0 else -1
        if inf_sign and this != inf_sign:
            return None  # inf - inf across terms
        inf_sign = this
    if inf_sign:
        return POS_INF if inf_sign > 0 else NEG_INF
    if finite_sum is None:
        return ZERO
    return finite_sum


def one_sided_limit(e: Expr, x0: Expr, side: Side, env: AssumptionEnv) -> Expr | float:
    """lim of e(x) as x -> x0 from the given side.

    Returns an exact variable-free expression when the structural pass
    decides it, +-inf for poles, or a probed float as a last resort.
    """
    out = _limit_core(e, env, x0, side, None)
    if out is not None:
        return out
    x0f = numeric.at(x0, numeric.binding(env))
    if x0f is None:
        raise UnsupportedOperation(f"cannot place limit point {to_text(x0)} numerically")
    return _probe(e, env, x0f, side, None)


def limit_at_infinity(e: Expr, direction: int, env: AssumptionEnv) -> Expr | float:
    """lim of e(x) as x -> +inf (direction > 0) or -inf (direction < 0)."""
    out = _limit_core(e, env, None, None, 1 if direction > 0 else -1)
    if out is not None:
        return out
    return _probe(e, env, None, None, 1 if direction > 0 else -1)


def limit_at(e: Expr, point: Expr | float, side: Side, env: AssumptionEnv) -> Expr | float:
    """Dispatch on a finite point (an Expr) vs a float infinity."""
    if isinstance(point, Expr):
        return one_sided_limit(e, point, side, env)
    return limit_at_infinity(e, 1 if point > 0 else -1, env)


def exact_one_sided_limit(e: Expr, x0: Expr, side: Side, env: AssumptionEnv) -> Expr | float | None:
    """``one_sided_limit`` by the structural pass alone: an exact
    expression or +-inf, or None where only the probe could decide."""
    return _limit_core(e, env, x0, side, None)
