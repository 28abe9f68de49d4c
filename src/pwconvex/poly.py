"""Dense polynomials in x over Q, and the signs of one on an interval.

A polynomial is a list of exact coefficients, int or Fraction (an
integral one int), from degree 0 up, with no trailing zero: [] is 0.
``coefficients`` reads one from a canonical sum map of ``simplify``
through ``split_degree``, the one place that takes the degree of a term.
On these lists rest the derivative, ``divide`` (quotient and remainder;
``simplify._cancel_rational`` divides with it), ``gcd`` and the
square-free part.  ``signs`` gives the signs q takes on an open interval
with rational or infinite ends, a Cauchy bound on the roots in place of
an infinite end: at once where Descartes' rule of signs leaves q no
root there but 0, and otherwise from q at one rational point inside
each gap between its real roots there, the roots isolated by Sturm
counts on the square-free part (after Collins & Akritas, SYMSAC 1976).
The Sturm sequence holds positive multiples with int coefficients, and
signs are read by Horner's rule in ints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import Expr, Var, contains_var

Number = int | Fraction
Poly = list


def _canon(v: Number) -> Number:
    """v, with a Fraction of denominator 1 as the equal int."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def _trim(a: Poly) -> Poly:
    while a and a[-1] == 0:
        a.pop()
    return a


def split_degree(factors: tuple) -> tuple[int, tuple] | None:
    """(n, rest) for the term x^n * prod(rest), or None when the
    exponent of x is not a nonnegative integer.  A power of a power of
    x is one more factor of rest, never flattened: (x^2)^(1/2) is |x|."""
    n = 0
    rest: list[tuple[Expr, Number]] = []
    for f, q in factors:
        if isinstance(f, Var):
            if q.denominator != 1 or q < 0:
                return None
            n = int(q)
        else:
            rest.append((f, q))
    return n, tuple(rest)


def coefficients(m: dict) -> list | None:
    """Dense coefficients of a canonical sum map of ``simplify``, each
    entry the term c * x^n * rest; the coefficient of a degree whose
    terms hold parameters is None.  None when a term is not a
    nonnegative integer power of x times a variable-free rest, or has a
    float coefficient."""
    q: list = []
    for factors, c in m.items():
        split = split_degree(factors)
        if isinstance(c, float) or split is None:
            return None
        n, rest = split
        if any(contains_var(f) for f, _ in rest):
            return None
        q.extend([0] * (n + 1 - len(q)))
        q[n] = None if rest or q[n] is None else c
    return q


def derivative(a: Poly, k: int = 1) -> Poly:
    """The k-th derivative of a; the coefficients below degree k are
    not read."""
    return [_canon(c * math.perm(i, k)) for i, c in enumerate(a) if i >= k]


def _quo(x: Number, y: Number) -> Number:
    """x / y, exactly; an int where it is one, without a Fraction."""
    if type(x) is int and type(y) is int and x % y == 0:
        return x // y
    return _canon(Fraction(x) / y)


def divide(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(quotient, remainder) of a by the nonzero b."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = _quo(r[k + db], lead)
        if c:
            for i, bi in enumerate(b):
                r[k + i] = _canon(r[k + i] - c * bi)
    return _trim(quot), _trim(r[:db])


def _primitive(a: Poly) -> Poly:
    """The positive multiple of a with coprime int coefficients."""
    if not a:
        return a
    den = math.lcm(*(c.denominator for c in a))
    ints = [c.numerator * (den // c.denominator) for c in a]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _remainder(a: Poly, b: Poly) -> Poly:
    """The remainder of |lc(b)|^k * a by b for int polynomials, k one
    more than the difference of their degrees: a positive multiple of
    the remainder of a by b, computed in ints."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    scale = abs(lead)
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db] if lead > 0 else -r[k + db]
        r = [v * scale for v in r]
        for i, bi in enumerate(b):
            r[k + i] -= c * bi
    return _trim(r[:db])


def gcd(a: Poly, b: Poly) -> Poly:
    """A greatest common divisor of a and b with coprime int
    coefficients (0 for two zeros), by Euclid on primitive remainders."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_remainder(a, b))
    return a


def squarefree(a: Poly) -> Poly:
    """a over gcd(a, a'): the same real roots, each simple; an int
    polynomial for an int a."""
    if len(a) < 3:
        return a
    return divide(a, gcd(a, derivative(a)))[0]


def _sign_at(a: Poly, x: Number) -> int:
    """The sign of the int polynomial a at x, by Horner's rule on a(x)
    times the denominator of x to the degree of a: all in ints."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(a):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def sturm(p: Poly) -> list[Poly]:
    """The Sturm sequence of p, each term a positive multiple with int
    coefficients: p, p', then each negated remainder."""
    seq = [_primitive(p), _primitive(derivative(p))]
    while seq[-1]:
        seq.append(_primitive([-c for c in _remainder(seq[-2], seq[-1])]))
    seq.pop()
    return seq


def variations(seq: list[Poly], x: Number) -> int:
    """Sign changes of a sequence of int polynomials at x, zeros skipped.
    For square-free p and a < b, variations(sturm(p), a) -
    variations(sturm(p), b) is the number of real roots of p in (a, b]
    (Sturm's theorem)."""
    count, last = 0, 0
    for a in seq:
        v = _sign_at(a, x)
        if v:
            count += last * v < 0
            last = v
    return count


def cauchy_bound(a: Poly) -> int:
    """An int B with every real root of the nonzero int polynomial a in
    (-B, B)."""
    return 2 + max(map(abs, a[:-1]), default=0) // abs(a[-1])


def _one_sign(q: Poly, lo, hi) -> int | None:
    """The sign of q on (lo, hi) when Descartes' rule of signs leaves it
    no root there but 0: no sign change among the coefficients of q(x)
    where the interval meets x > 0, nor among those of q(-x) where it
    meets x < 0, and one sign on both sides.  None otherwise."""
    right = left = None
    if hi > 0:
        if not (all(c >= 0 for c in q) or all(c <= 0 for c in q)):
            return None
        right = 1 if q[-1] > 0 else -1
    if lo < 0:
        mirror = [-c if i % 2 else c for i, c in enumerate(q)]
        if not (all(c >= 0 for c in mirror) or all(c <= 0 for c in mirror)):
            return None
        left = 1 if mirror[-1] > 0 else -1
    if right and left and right != left:
        return None
    return right or left


def signs(q: Poly, lo=-math.inf, hi=math.inf) -> dict[int, tuple[Number, Number, Number]]:
    """The signs the nonzero q takes on the open interval (lo, hi), each
    with rational a < m < b inside it such that q has that sign on all
    of (a, b).  lo < hi are exact rationals or +-inf.  A single key
    means q keeps that sign there but at finitely many zeros."""
    q = _primitive(q)
    if type(lo) is float or type(hi) is float:  # an infinite end
        bound = cauchy_bound(q) + sum(abs(e) for e in (lo, hi) if type(e) is not float)
        lo = -bound if type(lo) is float else lo
        hi = bound if type(hi) is float else hi
    lo, hi = _canon(lo), _canon(hi)
    one = _one_sign(q, lo, hi)
    if one is not None:  # no root there but 0: read off it
        if lo < 0 < hi and q[0] == 0:
            lo = 0
        return {one: (lo, _canon(Fraction(lo + hi, 2)), hi)}
    p = squarefree(q)
    seq = sturm(p)

    def inside(a, b) -> int:
        """The number of roots of p in the open (a, b)."""
        return variations(seq, a) - variations(seq, b) - (_sign_at(p, b) == 0)

    def near(end, other):
        """A point between end and the root of p nearest to it."""
        x = Fraction(end + other, 2)
        while _sign_at(p, x) == 0 or inside(min(end, x), max(end, x)):
            x = (end + x) / 2
        return x

    def split(a, b) -> None:
        """Points between each two roots of p in (a, b)."""
        if inside(a, b) < 2:
            return
        m = Fraction(a + b, 2)
        while _sign_at(p, m) == 0:
            m = (a + m) / 2
        points.append(m)
        split(a, m)
        split(m, b)

    if inside(lo, hi) == 0:
        m = _canon(Fraction(lo + hi, 2))
        return {_sign_at(q, m): (lo, m, hi)}
    points = [near(lo, hi), near(hi, lo)]
    split(*points)
    out: dict[int, tuple[Number, Number, Number]] = {}
    for m in points:
        s = _sign_at(q, m)
        if s not in out:
            r = min(m - lo, hi - m)
            while inside(m - r, m + r):
                r /= 2
            out[s] = (_canon(m - r), _canon(m), _canon(m + r))
    return out
