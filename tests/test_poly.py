"""Dense polynomials over Q (poly.py) and the exact convexity and
monotonicity tier built on them."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwconvex import AssumptionEnv, numeric, parse_pwf, poly
from pwconvex.errors import NonConvex, NotMonotone
from pwconvex.expr import ImplicitInverse, parse_expr
from pwconvex.inverse import check_strictly_monotone, derivative_signs, invert_monotone
from pwconvex.monop import parse_operator, subdifferential
from pwconvex.simplify import exact_poly

RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
NONZERO = RATIONALS.filter(bool)


def mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c.numerator if c.denominator == 1 else c for c in out]


def add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return [c.numerator if c.denominator == 1 else c for c in out]


def value(a, x):
    """a(x) by Horner's rule in Fractions."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def sign(v):
    return (v > 0) - (v < 0)


@st.composite
def factored(draw):
    """(q, its distinct real roots, its radical): q = c * prod (x - r)^m,
    times x^2 + s (no real root) or not; the radical has each factor
    once."""
    roots = draw(st.dictionaries(RATIONALS, st.integers(1, 3), max_size=4))
    q = [draw(NONZERO)]
    radical = [1]
    for r, m in roots.items():
        radical = mul(radical, [-r, 1])
        for _ in range(m):
            q = mul(q, [-r, 1])
    if draw(st.booleans()):
        quadratic = [draw(st.integers(1, 9)), 0, 1]
        q, radical = mul(q, quadratic), mul(radical, quadratic)
    return q, sorted(roots), radical


POLYS = st.lists(RATIONALS, max_size=6).map(lambda c: add(c, []))


@settings(max_examples=300, deadline=None)
@given(POLYS, POLYS.filter(bool))
def test_divide_gives_quotient_and_a_shorter_remainder(a, b):
    q, r = poly.divide(a, b)
    assert add(mul(q, b), r) == add(a, [])
    assert len(r) < len(b)
    assert not any(isinstance(c, float) or type(c) is Fraction and c.denominator == 1 for c in q + r)


@settings(max_examples=200, deadline=None)
@given(POLYS.filter(bool), POLYS.filter(bool), POLYS.filter(bool))
def test_gcd_is_the_greatest_common_factor(c, a, b):
    g = poly.gcd(mul(c, a), mul(c, b))
    assert all(type(v) is int for v in g)
    assert poly.divide(mul(c, a), g)[1] == [] and poly.divide(mul(c, b), g)[1] == []
    assert poly.divide(g, c)[1] == []  # c divides g
    cofactors = poly.divide(mul(c, a), g)[0], poly.divide(mul(c, b), g)[0]
    assert len(poly.gcd(*cofactors)) == 1


@settings(max_examples=200, deadline=None)
@given(factored())
def test_squarefree_part_keeps_each_real_root_once(example):
    q, roots, radical = example
    p = poly.squarefree(q)
    quotient, remainder = poly.divide(p, radical)  # p is radical times a constant
    assert len(quotient) == 1 and remainder == []
    assert poly.divide(q, p)[1] == []
    assert len(poly.gcd(p, poly.derivative(p))) == 1
    assert all(value(p, r) == 0 for r in roots)


@settings(max_examples=200, deadline=None)
@given(factored(), RATIONALS, RATIONALS)
def test_sturm_counts_the_distinct_roots_in_a_half_open_interval(example, a, b):
    q, roots, _ = example
    a, b = min(a, b), max(a, b)
    seq = poly.sturm(poly.squarefree(q))
    assert poly.variations(seq, a) - poly.variations(seq, b) == sum(a < r <= b for r in roots)


def truth(q, roots, lo, hi):
    """The signs q takes on (lo, hi): its sign between each two of its
    roots there, and between an end and the nearest root."""
    big = 1 + max((abs(r) for r in roots), default=0) + sum(abs(e) for e in (lo, hi) if not math.isinf(e))
    lo, hi = (-big if lo == -math.inf else lo), (big if hi == math.inf else hi)
    cuts = [lo, *(r for r in roots if lo < r < hi), hi]
    return {sign(value(q, (u + v) / 2)) for u, v in zip(cuts, cuts[1:])}


ENDS = st.one_of(RATIONALS, st.just(math.inf))


@settings(max_examples=300, deadline=None)
@given(factored(), ENDS, ENDS, st.lists(st.floats(0.01, 0.99), max_size=5))
# roots at 0 only: odd (x, x^3 * (x^2 + 1)) and even (x^2) multiplicity
@example(([0, 1], [0], [0, 1]), 1, 1, [])
@example(([0, 2, 0, 2], [0], [0, 1]), math.inf, math.inf, [])
@example(([0, 0, 3], [0], [0, 1]), math.inf, math.inf, [])
def test_signs_on_an_interval_are_the_signs_between_the_roots(example, lo, hi, ts):
    q, roots, _ = example
    lo, hi = -lo, hi
    if not lo < hi:
        return
    got = poly.signs(q, lo, hi)
    assert set(got) == truth(q, roots, lo, hi)
    for s, (a, m, b) in got.items():
        assert lo <= a < m < b <= hi
        # q keeps the sign on (a, b): at m and at rational points inside
        for t in [Fraction(1, 2), *(Fraction(t) for t in ts)]:
            assert sign(value(q, a + (b - a) * t)) == s
        assert sign(value(q, m)) == s


def test_signs_of_a_constant():
    # an infinite end is replaced by the Cauchy bound 2 plus the finite end's size
    assert poly.signs([3]) == {1: (-2, 0, 2)}
    assert poly.signs([-3], 1, math.inf) == {-1: (1, 2, 3)}
    assert poly.signs([-3], -math.inf, Fraction(1, 2)) == {-1: (Fraction(-5, 2), -1, Fraction(1, 2))}
    # integral ends come back as int
    assert all(type(v) is int for v in poly.signs([3], Fraction(-2), Fraction(4))[1])


def test_coefficients_mark_parametric_degrees_and_refuse_non_polynomials():
    def read(text):
        return exact_poly(parse_expr(text))

    assert read("x^3/2 - 3*x + 1") == [1, -3, 0, Fraction(1, 2)]
    assert read("a*x + x^2") == [0, None, 1]
    assert read("x^2 + a") == [None, 0, 1]
    assert read("x/2 + (a + 1)*x^2") == [0, Fraction(1, 2), None]
    assert read("exp(x) + x") is None
    assert read("(x^2)^(1/2)") is None
    assert exact_poly(0.5 * parse_expr("x^2")) is None  # a float coefficient


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial over Q reached numeric.sample")

    monkeypatch.setattr(numeric, "sample", refuse)


@pytest.mark.parametrize("text, facts", [
    ("x^4 + x^2", []),
    ("x^4", []),
    ("pw{ x < 0 -> inf ; x >= 0 -> x^4/4 + x^3 }", []),
    ("pw{ x < -1 -> -2*x - 1 ; -1 <= x & x <= 2 -> x^2 ; x > 2 -> 4*x - 4 }", []),
    ("x^2/2 + a*x", ["0 < a"]),  # the parameter is below the second derivative
    ("a*x^2", ["0 < a"]),  # f'' = 2a, signed by the facts
    ("pw{ x < a -> inf ; x >= a -> x^4 + x^2 }", ["0 < a"]),  # f'' > 0 on the whole line
])
def test_a_polynomial_piece_is_certified_without_sampling(no_sampling, text, facts):
    env = AssumptionEnv.parse(facts)
    f = parse_pwf(text, env)
    subdifferential(f)


def test_a_parametric_coefficient_in_a_nonconstant_derivative_is_left_to_sampling():
    env = AssumptionEnv.parse(["0 < a"])
    for text, k in [("a*x^3 + x^2", 2), ("a*x^2 + x", 1)]:
        assert derivative_signs(parse_expr(text), k, env, -math.inf, math.inf) is None


def test_a_sign_change_on_the_line_leaves_a_parametric_cell_to_sampling():
    # f'' = 6x changes sign at 0, outside the cell (a, inf) with 1 < a
    f = parse_pwf("pw{ x < a -> inf ; x >= a -> x^3 }", AssumptionEnv.parse(["1 < a"]))
    assert f.pieces[-1].kind == "strictly-convex"


def test_a_polynomial_operator_is_certified_without_sampling(no_sampling):
    parse_operator("sd{ x < 0 -> {x^3 + x} ; x = 0 -> [0, 1] ; x > 0 -> {x^5 + 1} }")
    inv = invert_monotone(parse_expr("x^3 + x"), AssumptionEnv.parse([]))
    assert isinstance(inv, ImplicitInverse)
    env = AssumptionEnv.parse([])
    assert check_strictly_monotone(parse_expr("1 - x^3"), env, -math.inf, math.inf) == -1
    assert check_strictly_monotone(parse_expr("3"), env, -math.inf, math.inf) == 1


def test_an_exact_failure_names_a_witness(no_sampling):
    with pytest.raises(NonConvex) as exc:
        parse_pwf("x^4 - x^2")
    a, m, b = exc.value.witness
    f = lambda t: t**4 - t**2  # noqa: E731
    assert a < m < b and f(m) > (f(a) + f(b)) / 2
    with pytest.raises(NonConvex):
        parse_pwf("a*x^2", AssumptionEnv.parse(["a < 0"]))
    with pytest.raises(NotMonotone, match="slope is positive"):
        parse_operator("sd{ x < 0 -> {x} ; x = 0 -> {0} ; x > 0 -> {x^3 - 3*x} }")
