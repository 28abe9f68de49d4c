"""Exact limits of numeric nodes at the ends they are built to meet, and
float kernels compiled once per shape.

An implicit inverse g^-1 of an increasing g on (lo, hi) tends to a at
x0 = g(a) for a finite end a: from the right at lo, from the left at
hi (a monotone inverse is continuous on its image).  A NumericIntegral
is 0 at its own base.  ``limits`` must take both without a numeric
probe or a sampled sign, so here both are patched to raise.

A composite base that holds exp, ln or a numeric node grows at a rate
the structural pass does not know: a zero-infinity race it joins is
taken exactly or refused, never decided by a power's rate.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bisect_root
from pwconvex import limits, numeric
from pwconvex.assumptions import AssumptionEnv
from pwconvex.errors import UnsupportedOperation
from pwconvex.expr import (
    BISECT_REL_TOL,
    Add,
    Const,
    Exp,
    Expr,
    ImplicitInverse,
    Mul,
    NumericIntegral,
    Pow,
    Sub,
    X,
    _compiled,
    _kernel_template,
    as_expr,
    evaluate,
    float_kernel,
    parse_expr,
    substitute,
)
from pwconvex.simplify import is_zero, simplify

INF = math.inf
COEFFS = st.builds(Fraction, st.integers(1, 40), st.sampled_from([4, 10]))
ENDS = st.builds(Fraction, st.integers(-12, 12), st.just(4))
ROOTS = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(5, 2)])


def q(v: Fraction) -> str:
    return f"({v.numerator}/{v.denominator})"


@contextmanager
def no_sampling():
    """limits may not probe a body or sample a sign."""

    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    with mock.patch.object(limits, "_probe", refuse), mock.patch.object(numeric, "sign", refuse):
        yield


@st.composite
def forward_maps(draw, zero_end: bool = False):
    """(g, the same map as a float function, lo, hi, side, floor): g is
    strictly increasing on (lo, hi), and the end the side approaches (lo
    from the right, hi from the left) is a finite rational a, 0 when
    ``zero_end``; g is defined on [floor, inf)."""
    kind = draw(st.sampled_from(["odd_polynomial", "power", "exp"]))
    c = [draw(COEFFS) for _ in range(3)]
    f0, f1, f2 = map(float, c)
    side = "right" if kind == "power" else draw(st.sampled_from(["right", "left"]))
    a = Fraction(0) if zero_end else draw(ENDS)
    if kind == "odd_polynomial":
        text, floor = f"{q(c[0])}*x + {q(c[1])}*x^3 + {q(c[2])}*x^5", -INF
        fn = lambda t: f0 * t + f1 * t**3 + f2 * t**5  # noqa: E731
    elif kind == "exp":
        text, floor = f"exp({q(c[0])}*x) + {q(c[1])}*x", -INF
        fn = lambda t: math.exp(f0 * t) + f1 * t  # noqa: E731
    else:
        # t + c*t^r on (0, inf): the end is lo = |a|, or hi = |a| > 0 above lo = 0
        r = draw(ROOTS)
        text, floor, a = f"x + {q(c[0])}*x^({r})", 0.0, abs(a)
        fn = lambda t: t + f0 * t ** float(r)  # noqa: E731
        if a > 0 and draw(st.booleans()):
            return parse_expr(text), fn, as_expr(0), as_expr(a), "left", floor
    lo, hi = (as_expr(a), INF) if side == "right" else (-INF, as_expr(a))
    return parse_expr(text), fn, lo, hi, side, floor


def end_of(lo, hi, side) -> Expr:
    return lo if side == "right" else hi


class TestInverseEnds:
    @settings(max_examples=150, deadline=None)
    @given(forward_maps())
    def test_the_inverse_at_the_image_of_an_end_is_that_end(self, example):
        g, fn, lo, hi, side, floor = example
        a = end_of(lo, hi, side)
        x0 = simplify(substitute(g, var=a))
        inverse = ImplicitInverse(g, lo, hi)
        with no_sampling():
            got = limits.one_sided_limit(inverse, x0, side, AssumptionEnv.parse([]))
        assert isinstance(got, Expr) and is_zero(Sub(got, a))
        # one tolerance inside the image, the solver agrees with plain bisection
        y0, af = float(evaluate(x0)), float(evaluate(a))
        step = numeric.REL_TOL * max(1.0, abs(y0))
        if side == "right":
            y, bracket = y0 + step, (af, af + 1.0)
        else:
            y, bracket = y0 - step, (max(floor, af - 1.0), af)
        root = bisect_root(fn, y, *bracket)
        assert abs(evaluate(inverse, y) - root) <= 2 * BISECT_REL_TOL * max(1.0, abs(root))

    @settings(max_examples=60, deadline=None)
    @given(forward_maps(zero_end=True))
    def test_the_reciprocal_of_the_inverse_at_a_zero_end_diverges(self, example):
        g, _, lo, hi, side, _ = example
        x0 = simplify(substitute(g, var=as_expr(0)))
        reciprocal = Pow(ImplicitInverse(g, lo, hi), Fraction(-1))
        with no_sampling():
            got = limits.one_sided_limit(reciprocal, x0, side, AssumptionEnv.parse([]))
        # the inverse tends to 0 from inside (0, hi) or (lo, 0)
        assert got == (INF if side == "right" else -INF)

    def test_an_infinite_end_is_approached_at_the_forward_map_s_finite_limit(self):
        # exp tends to 0 at -inf, so its inverse (ln) tends to -inf at 0+
        env = AssumptionEnv.parse([])
        with no_sampling():
            assert limits.one_sided_limit(ImplicitInverse(Exp(X), -INF, INF), as_expr(0), "right", env) == -INF
            neg = ImplicitInverse(parse_expr("0 - exp(0 - x)"), -INF, INF)
            assert limits.one_sided_limit(neg, as_expr(0), "left", env) == INF

    def test_the_inverse_off_its_ends_is_still_probed(self):
        # x0 = 3 is inside the image of x^3 + x on (1, inf), whose lower end maps to 2
        inverse = ImplicitInverse(parse_expr("x^3 + x"), as_expr(1), INF)
        with no_sampling(), pytest.raises(AssertionError, match="sampled"):
            limits.one_sided_limit(inverse, as_expr(3), "right", AssumptionEnv.parse([]))
        assert limits.one_sided_limit(inverse, as_expr(2), "right", AssumptionEnv.parse([])) == as_expr(1)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_an_integral_at_its_base_is_zero(self, side):
        integral = NumericIntegral(ImplicitInverse(parse_expr("x^3 + x"), -INF, INF), as_expr(2))
        env = AssumptionEnv.parse([])
        with no_sampling():
            assert limits.one_sided_limit(integral, as_expr(2), side, env) == as_expr(0)
            assert limits.one_sided_limit(Add(as_expr(4), integral), as_expr(2), side, env) == as_expr(4)


NUMBERS = st.one_of(st.integers(-50, 50), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
                    st.floats(-50, 50))


def one_shape(c: list, n: int) -> Expr:
    """c0*x^n + c1*exp(c2*x): every constant and the exponent are slots."""
    return Add(Mul(Const(c[0]), Pow(X, Fraction(n))), Mul(Const(c[1]), Exp(Mul(Const(c[2]), X))))


class TestKernelShapes:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(NUMBERS, min_size=3, max_size=3), st.lists(NUMBERS, min_size=3, max_size=3),
           st.integers(0, 6), st.integers(0, 6), st.floats(-3, 3))
    def test_one_shape_compiles_once_and_each_kernel_is_the_walk(self, c1, c2, n1, n2, x):
        e1, e2 = one_shape(c1, n1), one_shape(c2, n2)
        misses = _compiled.cache_info().misses
        assert _kernel_template(e1)[0] is _kernel_template(e2)[0]
        assert _compiled.cache_info().misses - misses <= 1
        for e in (e1, e2):
            assert repr(float_kernel(e)(x)) == repr(float(evaluate(e, x)))

    def test_another_shape_has_its_own_factory(self):
        assert _kernel_template(parse_expr("2*x + 1"))[0] is not _kernel_template(parse_expr("2*exp(x)"))[0]


# ROADMAP 2m: each of these read as a power-rate zero against an exp or
# log infinity, which gave +inf, +inf and 0
@pytest.mark.parametrize("text, want", [("exp(x)/(exp(x) + 1)", 1), ("exp(x)/(exp(2*x) + 1)", 0),
                                        ("ln(x)/(ln(x) + 1)", 1)])
def test_a_composite_base_of_unknown_rate_is_exact_or_refused(text, want):
    try:
        v = limits.limit_at_infinity(parse_expr(text), 1, AssumptionEnv.empty())
    except UnsupportedOperation:
        return
    assert not numeric.is_inf(v)
    got = float(evaluate(v)) if isinstance(v, Expr) else v
    assert got == pytest.approx(want, abs=1e-9)


def test_a_probed_limit_is_a_float_constant():
    # ((exp(x) - 1)/x - 1)/(e - 2) at 0+: a zero-infinity race the
    # structural pass refuses, so the probe takes it
    body = parse_expr("((exp(x) - 1)/x - 1)/(exp(1) - 2)")
    env = AssumptionEnv.parse([])
    assert limits.exact_one_sided_limit(body, as_expr(0), "right", env) is None
    got = limits.one_sided_limit(body, as_expr(0), "right", env)
    assert isinstance(got, Const) and isinstance(got.value, float)
    assert abs(got.value) <= 1e-9
