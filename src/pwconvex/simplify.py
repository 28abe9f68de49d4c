"""Algebraic canonicalization.

Expressions normalize to a sum of products: each term is an exact
coefficient times a sorted tuple of (factor, rational exponent) pairs.
Exact coefficients and exponents are int or Fraction, an integral one
always int (``_canon_number``), so most of the arithmetic is on machine
ints; a float coefficient is an approximation and folds in floats.
Rational constants fold exactly, and an irrational root of a positive
rational keeps only its fractional power as a factor (2^(3/2) ->
2*2^(1/2)); exp factors merge (exp(u)*exp(v) -> exp(u+v)); like terms
combine.  Powers distribute over products only
when that is sound for real arguments (integer exponents, or an odd
inner exponent), so abs-like identities such as (x^2)^(1/2) = |x| are
never silently broken.

Polynomials in x are read from a canonical sum: ``poly_coeffs`` and
``affine_parts`` into Expr coefficients, ``exact_poly`` and
``_cancel_rational`` (which divides with ``poly.divide``) into exact ones
by ``poly.coefficients``, all through ``poly.split_degree``, which takes
the degree of a term from its x^n factor only.  A power of a power of x
is another factor and is never flattened, so (x^2)^(1/2) is not read as
x.

Equality of outputs is pointwise, not canonical-form: two expressions
that print differently may still denote the same function, and tests
compare by evaluation where the algebra does not collapse them.

Invariant: every key of a sum map is a canonical factor tuple, as
``_canon_factors`` returns it.  The fast paths rely on it: a product
with a constant scales the other map and keeps its keys
(``_scale``), and a single factor other than exp is its own key
(``_single``).  ``simplify`` returns a tree that is already canonical
as itself.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from . import poly
from .errors import DomainError
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
    Neg,
    NumericIntegral,
    Number,
    Param,
    Pow,
    Sub,
    Var,
    X,
    ZERO,
    _pow_number,
    contains_var,
    map_children,
    pow_sign,
    to_text,
)

# A term maps a canonical factor tuple to its coefficient.  Exponents
# are int or Fraction, coefficients int or Fraction (or float); an
# integral one is int.
Factors = tuple[tuple[Expr, int | Fraction], ...]
SumMap = dict[Factors, Number]

_MAX_EXPAND_POWER = 4


_FACTOR_ORDER = {Exp: 2, Ln: 3, Abs: 4}


def _factor_key(f: Expr) -> tuple:
    """The sort key of a factor: its kind's rank, then its text.  Var
    and Param keys are built without rendering."""
    t = type(f)
    if t is Var:
        return (0, "x")
    if t is Param:
        return (1, f.name)
    return (_FACTOR_ORDER.get(t, 5), to_text(f))


#: one shared node for each integer in [-SHARED_INTS, SHARED_INTS]: the
#: trees the simplify cache holds are full of small integer constants
SHARED_INTS = 256
_INT_NODES = {n: Const(n) for n in range(-SHARED_INTS, SHARED_INTS + 1)}


def _const_node(v: Number) -> Const:
    """Const(v), the shared node for a small integer."""
    if type(v) is int and -SHARED_INTS <= v <= SHARED_INTS:
        return _INT_NODES[v]
    return Const(v)


def _canon_number(v: Number) -> Number:
    """v, with a Fraction of denominator 1 as the equal int."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _canon_factors(pairs: Iterable[tuple[Expr, int | Fraction]]) -> tuple[Factors, Number]:
    """Merge duplicate factors, fold exp factors together, sort.  A root
    c^r of a positive rational c raised to q is c^(r*q) (``_pow_map``):
    its rational part leaves the factors as the second item, the exact
    number the factors are to be multiplied by (1 when nothing folds)."""
    merged: dict[Expr, int | Fraction] = {}
    for f, q in pairs:
        merged[f] = merged[f] + q if f in merged else q

    exp_arg: SumMap | None = None
    out: list[tuple[Expr, int | Fraction]] = []
    roots: list[tuple[Expr, int | Fraction]] = []
    for f, q in merged.items():
        if q == 0:
            continue
        if isinstance(f, Exp):
            contrib = _scale(_snf(f.arg), q)
            exp_arg = contrib if exp_arg is None else _add_maps(exp_arg, contrib)
        elif q != 1 and type(f) is Pow and type(f.base) is Const and f.base.value > 0:
            roots.append((f, q))
        else:
            out.append((f, _canon_number(q)))
    if exp_arg is not None:
        arg = _rebuild(exp_arg)
        if isinstance(arg, Const) and arg.value == 0:
            pass  # exp(0) = 1
        else:
            out.append((Exp(arg), 1))
    if roots:
        k: Number = 1
        for f, q in roots:
            (folded, c), = _pow_map(_const_map(f.base.value), f.exponent * q).items()
            out += ((g, 1) for g, _ in folded)
            k *= c
        # a folded root may meet another factor of the same root
        factors, c = _canon_factors(out)
        return factors, _canon_number(k * c)
    out.sort(key=lambda p: _factor_key(p[0]))
    return tuple(out), 1


def _add_term(m: SumMap, k: Factors, c: Number) -> None:
    """m[k] += c in place; a zero result leaves no entry."""
    c = _canon_number(m[k] + c if k in m else c)
    if c == 0:
        m.pop(k, None)
    else:
        m[k] = c


def _add_maps(a: SumMap, b: SumMap) -> SumMap:
    out = dict(a)
    for k, v in b.items():
        _add_term(out, k, v)
    return out


def _scale(a: SumMap, c: Number) -> SumMap:
    """c * a, term by term in a's order, as the pairwise product with
    {(): c} builds it: a's keys are canonical, so each stays as it is,
    and a product that is zero (a float that underflows) leaves no
    entry."""
    if c == 0:
        return {}
    return {k: _canon_number(p) for k, v in a.items() if (p := v * c) != 0}


def _mul_maps(a: SumMap, b: SumMap) -> SumMap:
    if len(a) == 1 and () in a:
        return _scale(b, a[()])
    if len(b) == 1 and () in b:
        return _scale(a, b[()])
    out: SumMap = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            factors, k = _canon_factors(fa + fb)
            coeff = ca * cb if k == 1 else ca * cb * k
            if coeff != 0:
                _add_term(out, factors, coeff)
    return out


def _const_map(c: Number) -> SumMap:
    return {} if c == 0 else {(): _canon_number(c)}


def _single(f: Expr) -> SumMap:
    """The map of one factor f to the first power.  A factor other than
    exp is its own canonical key; exp folds its argument."""
    if type(f) is not Exp:
        return {((f, 1),): 1}
    factors, _ = _canon_factors([(f, 1)])
    if not factors:
        return _const_map(1)
    return {factors: 1}


def _is_const_map(m: SumMap) -> Number | None:
    if not m:
        return 0
    if len(m) == 1 and () in m:
        return m[()]
    return None


def _iroot(n: int, k: int) -> int | None:
    """Exact nonnegative integer k-th root, or None: math.isqrt for a
    square root, integer Newton's method from above otherwise."""
    if n < 2:
        return n
    if k == 2:
        r = math.isqrt(n)
    else:
        r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > the root
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r**k == n else None


def _exact_pow_frac(c: int | Fraction, q: Fraction) -> int | Fraction | None:
    """c**q as an exact rational, or None when the root is irrational."""
    if c == 0:
        return 0 if q > 0 else None
    if c < 0:
        sign = pow_sign(-1, q)
        sub = None if sign is None else _exact_pow_frac(-c, q)
        return None if sub is None else sign * sub
    p = Fraction(c) ** q.numerator  # an int to a negative power is a float
    rn = _iroot(p.numerator, q.denominator)
    rd = _iroot(p.denominator, q.denominator)
    if rn is None or rd is None:
        return None
    return rn if rd == 1 else Fraction(rn, rd)


def _power(c: Number, q: int | Fraction) -> Number:
    """c^q by ``_pow_number``; a float power that overflows is a
    DomainError, like every other power without a value."""
    try:
        return _pow_number(c, q)
    except OverflowError:
        raise DomainError(f"{c}^{q} overflows in simplification") from None


def _term(factors: Factors, c: Number) -> SumMap:
    """The one term c * factors; a zero c (a float underflow) leaves none, as in ``_scale``."""
    return {factors: c} if factors and c != 0 else _const_map(c)


def _pow_map(base: SumMap, q: int | Fraction) -> SumMap:
    if q == 0:
        return _const_map(1)
    if q == 1:
        return base
    c = _is_const_map(base)
    if c is not None:
        if not isinstance(c, float) and q.denominator != 1:
            exact = _exact_pow_frac(c, q)
            if exact is not None:
                return _const_map(exact)
            if c < 0:  # the real root of a negative base is expr.pow_sign's
                return _single(Pow(Const(c), q))
            # c^q = c^n * c^(q - n) with 0 < q - n < 1, so like terms combine
            n = q.numerator // q.denominator
            return _term(((Pow(Const(c), q - n), 1),), _canon_number(_power(c, n)))
        return _const_map(_power(c, q))
    if len(base) == 1:
        (factors, coeff), = base.items()
        if q.denominator == 1:
            # integer exponents distribute over any product
            factors2, k = _canon_factors([(f, e * q) for f, e in factors])
            return _term(factors2, _canon_number(_power(coeff, q) * k))
        # fractional exponent: distribute only when sound for real roots
        # and the coefficient has an exact rational root
        safe = all(e.denominator == 1 and e.numerator % 2 == 1 for _, e in factors)
        if safe:
            if not isinstance(coeff, float):
                cc = _exact_pow_frac(coeff, q)
            else:
                try:
                    cc = _power(coeff, q) if coeff > 0 else None
                except DomainError:
                    cc = None
            if cc is not None:
                factors2, k = _canon_factors([(f, e * q) for f, e in factors])
                return _term(factors2, _canon_number(cc * k))
    if q.denominator == 1 and 1 < q <= _MAX_EXPAND_POWER:
        out = base
        for _ in range(int(q) - 1):
            out = _mul_maps(out, base)
        return out
    if q.denominator == 1 and -_MAX_EXPAND_POWER <= q < 0:
        expanded = _pow_map(base, -q)
        if not expanded:  # every coefficient underflowed
            raise DomainError("division by zero in simplification")
        if len(expanded) == 1:
            (factors, coeff), = expanded.items()
            factors2, k = _canon_factors([(f, -e) for f, e in factors])
            try:
                cc = 1.0 / coeff if isinstance(coeff, float) else Fraction(1) / coeff
            except ZeroDivisionError:
                raise DomainError("division by zero in simplification") from None
            return _term(factors2, _canon_number(cc * k))
        return _single(Pow(_rebuild(expanded), -1))
    return _single(Pow(_rebuild(base), q))


def _inv_map(m: SumMap) -> SumMap:
    return _pow_map(m, -1)


def _leading_sign(m: SumMap) -> int:
    if not m:
        return 0
    key = sorted(m.keys(), key=lambda fs: tuple(_factor_key(f) + (str(e),) for f, e in fs))[0]
    return -1 if m[key] < 0 else 1


def _snf(e: Expr) -> SumMap:
    t = type(e)
    if t is Const:
        return _const_map(e.value)
    if t is Var:
        return _single(X)
    if t is Param:
        return _single(e)
    if t is Neg:
        return _scale(_snf(e.arg), -1)
    if t is Add:
        return _add_maps(_snf(e.left), _snf(e.right))
    if t is Sub:
        return _add_maps(_snf(e.left), _scale(_snf(e.right), -1))
    if t is Mul:
        return _mul_maps(_snf(e.left), _snf(e.right))
    if t is Div:
        den = _snf(e.right)
        if _is_const_map(den) == 0:
            raise DomainError("division by zero in simplification")
        return _mul_maps(_snf(e.left), _inv_map(den))
    if t is Pow:
        return _pow_map(_snf(e.base), e.exponent)
    if t is Exp:
        arg = simplify(e.arg)
        if isinstance(arg, Ln):
            return _snf(arg.arg)
        return _single(Exp(arg))
    if t is Ln:
        arg = simplify(e.arg)
        if isinstance(arg, Const):
            if arg.value == 1:
                return {}
            if arg.value <= 0:
                raise DomainError(f"log of nonpositive constant {arg.value}")
            if isinstance(arg.value, float):
                return _const_map(math.log(arg.value))
        if isinstance(arg, Exp):
            return _snf(arg.arg)
        return _single(Ln(arg))
    if t is Abs:
        arg_map = _snf(e.arg)
        c = _is_const_map(arg_map)
        if c is not None:
            return _const_map(abs(c))
        if _leading_sign(arg_map) < 0:
            arg_map = _scale(arg_map, -1)
        if len(arg_map) == 1:
            (factors, coeff), = arg_map.items()
            if all(q.denominator == 1 and q.numerator % 2 == 0 for _, q in factors):
                return {factors: abs(coeff)}  # even powers are already nonnegative
            # |c * f| = |c| * |f|
            inner = _rebuild({factors: 1})
            return _scale(_single(Abs(inner)), abs(coeff))
        return _single(Abs(_rebuild(arg_map)))
    if t is ImplicitInverse or t is NumericIntegral:
        return _single(map_children(e, simplify))
    raise TypeError(t.__name__)


def _term_sort_key(item: tuple[Factors, Number]) -> tuple:
    factors, _ = item
    if not factors:
        return (0, ())
    return (1, tuple(_factor_key(f) + (str(q),) for f, q in factors))


def _build_product(factors: Factors, coeff: Number) -> Expr:
    """Rebuild |coeff| * prod(factors) as a positive-coefficient tree."""
    num_parts: list[Expr] = []
    den_parts: list[Expr] = []
    for f, q in factors:
        target = num_parts if q > 0 else den_parts
        qq = q if q > 0 else -q
        target.append(f if qq == 1 else Pow(f, qq))

    coeff = abs(coeff)
    if isinstance(coeff, float):
        p, qden = coeff, 1
    else:
        p, qden = coeff.numerator, coeff.denominator

    if p != 1 or not num_parts:
        num_parts.insert(0, _const_node(p))
    num = num_parts[0]
    for part in num_parts[1:]:
        num = Mul(num, part)
    if qden != 1:
        den_parts.insert(0, _const_node(qden))
    if not den_parts:
        return num
    den = den_parts[0]
    for part in den_parts[1:]:
        den = Mul(den, part)
    return Div(num, den)


def _rebuild(m: SumMap) -> Expr:
    if not m:
        return ZERO
    items = sorted(m.items(), key=_term_sort_key)
    acc: Expr | None = None
    for factors, coeff in items:
        if not factors:
            piece = _const_node(coeff if coeff >= 0 else -coeff)
            negative = coeff < 0
        else:
            piece = _build_product(factors, coeff)
            negative = coeff < 0
        if acc is None:
            acc = Neg(piece) if negative and not isinstance(piece, Const) else (
                _const_node(-piece.value) if negative and isinstance(piece, Const) else piece
            )
        else:
            acc = Sub(acc, piece) if negative else Add(acc, piece)
    return acc if acc is not None else ZERO


def _cancel_rational(m: SumMap) -> SumMap:
    """Collapse sums of the shape poly(x) * (den)^-1 * rest when the
    polynomial is exactly divisible by den.

    Needed because normalization distributes numerators over opaque
    denominator factors, which would otherwise hide cancellations like
    x*(2+x)^-1 + 2*(2+x)^-1 = 1.
    """
    m = dict(m)
    for _ in range(4):
        dens: list[Pow] = []
        for factors in m:
            for f, q in factors:
                if isinstance(f, Pow) and f.exponent == -1 and q == 1 and f not in dens:
                    dens.append(f)
        progressed = False
        for P in dens:
            den = poly.coefficients(_snf(P.base))
            if den is None or None in den or len(den) < 2:
                continue
            # terms c * x^n * rest * P, grouped by rest: one numerator
            # polynomial per group
            groups: dict[Factors, list[Number]] = {}
            members: dict[Factors, list[Factors]] = {}
            for factors, coeff in m.items():
                if (P, 1) not in factors or isinstance(coeff, float):
                    continue
                split = poly.split_degree(tuple(p for p in factors if p != (P, 1)))
                if split is None:
                    continue
                deg, key = split
                num = groups.setdefault(key, [])
                num.extend([0] * (deg + 1 - len(num)))
                num[deg] = coeff
                members.setdefault(key, []).append(factors)
            for key, num in groups.items():
                quot, rem = poly.divide(num, den)
                if rem:
                    continue
                for factors in members[key]:
                    m.pop(factors, None)
                for d in range(len(quot) - 1, -1, -1):
                    if quot[d]:
                        factors, k = _canon_factors(key + (((X, d),) if d > 0 else ()))
                        _add_term(m, factors, quot[d] * k)
                progressed = True
        if not progressed:
            break
    return m


#: canonical forms ``simplify`` keeps, least recently used first out: a
#: quarter less memory than 16,384 entries, while 8,192 entries missed so
#: much more often that smooth penalty recovery slowed by an eighth
SIMPLIFY_CACHE_SIZE = 12288


@lru_cache(maxsize=SIMPLIFY_CACHE_SIZE)
def simplify(e: Expr) -> Expr:
    """Canonicalize an expression tree.  A tree already canonical comes
    back as itself, so the cache holds it once, not as two equal trees."""
    out = _rebuild(_cancel_rational(_snf(e)))
    return e if out == e else out


def is_zero(e: Expr) -> bool:
    s = simplify(e)
    return isinstance(s, Const) and s.value == 0


def as_terms(e: Expr) -> list[tuple[Number, Factors]]:
    """Decompose into summed terms coeff * prod(base^exponent).

    Bases are canonical subtrees; a base may itself be an opaque Pow
    node (unwrap it when exponent arithmetic matters).
    """
    m = _cancel_rational(_snf(e))
    return [(c, fs) for fs, c in m.items() if c != 0]


def poly_coeffs(e: Expr) -> dict[int, Expr] | None:
    """Coefficients by degree when e is a polynomial in the variable
    with variable-free coefficients; None otherwise."""
    try:
        m = _cancel_rational(_snf(e))
    except DomainError:
        return None
    by_degree: dict[int, SumMap] = {}
    for factors, c in m.items():
        split = poly.split_degree(factors)
        if split is None or any(contains_var(f) for f, _ in split[1]):
            return None
        by_degree.setdefault(split[0], {})[split[1]] = c
    return {n: _rebuild(terms) for n, terms in by_degree.items()}


def exact_poly(e: Expr) -> list | None:
    """``poly.coefficients`` of e: its exact coefficients by degree, with
    None for a degree whose coefficient holds parameters; None when e is
    not a polynomial in the variable."""
    try:
        return poly.coefficients(_cancel_rational(_snf(e)))
    except DomainError:
        return None


def affine_parts(e: Expr) -> tuple[Expr, Expr] | None:
    """(a, b) with e = a*x + b, a and b variable-free and a nonzero;
    None otherwise."""
    p = poly_coeffs(e)
    if p is None or max(p, default=0) != 1:
        return None
    return p[1], p.get(0, ZERO)


def as_param_affine(e: Expr) -> tuple[dict[str, Fraction], Fraction] | None:
    """Write a variable-free expression as sum(c_p * p) + c0 with exact
    coefficients; None when it is not affine in the parameters."""
    try:
        m = _snf(e)
    except DomainError:
        return None
    coeffs: dict[str, Fraction] = {}
    const = Fraction(0)
    for factors, c in m.items():
        c = Fraction(c) if isinstance(c, float) else c
        if not factors:
            const += c
        elif len(factors) == 1 and isinstance(factors[0][0], Param) and factors[0][1] == 1:
            name = factors[0][0].name
            coeffs[name] = coeffs.get(name, Fraction(0)) + c
        else:
            return None
    return coeffs, const


def structurally_equal(a: Expr, b: Expr) -> bool:
    return simplify(Sub(a, b)) == ZERO
