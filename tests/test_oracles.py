"""Conjugation and the proximal map against the brute-force oracles of
``oracles.py`` on smooth, non-PLQ convex functions.

The library gets f* as the antiderivative of the inverse of f' and the
prox as the inverse of I + f'; the oracles minimise f(x) - y*x and
f(u) + (u - x)^2/2 over float points and never touch those paths.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_conjugate, brute_prox
from pwconvex import conjugate, eval_op, eval_pwf, parse_pwf, prox
from pwconvex.expr import evaluate

POSITIVE = st.builds(Fraction, st.integers(1, 8), st.sampled_from([2, 4]))
NONNEGATIVE = st.builds(Fraction, st.integers(0, 8), st.sampled_from([2, 4]))
SIGNED = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([2, 4]))
NONZERO = SIGNED.filter(bool)
POINTS = st.floats(-3, 3)


def q(v: Fraction) -> str:
    return f"({v.numerator}/{v.denominator})"


@st.composite
def smooth_functions(draw):
    """(DSL text, y values inside dom f*) of a strictly convex function
    that is finite on the whole line."""
    kind = draw(st.sampled_from(["quartic", "exp_quadratic", "cosh", "exp"]))
    a = draw(NONZERO)
    if kind == "quartic":
        text = f"{q(draw(POSITIVE))}*x^4 + {q(draw(NONNEGATIVE))}*x^2 + {q(draw(SIGNED))}*x"
    elif kind == "exp_quadratic":
        text = f"exp({q(a)}*x) + {q(draw(POSITIVE))}*x^2"
    elif kind == "cosh":
        text = f"exp({q(a)}*x) + exp({q(-a)}*x)"
    else:
        # dom f* is the closed half-line on the side of a; read its interior
        text = f"exp({q(a)}*x)"
        ys = draw(st.lists(st.floats(1 / 16, 3), min_size=2, max_size=2))
        return text, [math.copysign(y, a) for y in ys]
    return text, draw(st.lists(POINTS, min_size=2, max_size=2))


def close(lib: float, brute: float, tol: float) -> bool:
    return abs(lib - brute) <= tol + tol * abs(brute)


@settings(max_examples=20, deadline=None)
@given(smooth_functions(), st.lists(POINTS, min_size=2, max_size=2))
def test_conjugate_and_prox_match_brute_force(case, xs):
    text, ys = case
    f = parse_pwf(text)
    g, P = conjugate(f), prox(f, 1)
    for y in ys:
        lib, brute = float(eval_pwf(g, y)), brute_conjugate(f, y)
        assert close(lib, brute, 1e-9), (text, y, lib, brute)
    for x in xs:
        v = eval_op(P, x)
        assert v.tag == "point"
        lib, brute = float(evaluate(v.lo)), brute_prox(f, x)
        assert abs(lib - brute) <= 1e-6, (text, x, lib, brute)


def test_conjugate_of_even_root_power():
    # (|x|^(4/3))*(y) = max over x of y x - |x|^(4/3) = 27/256 at y = +-1
    f = parse_pwf("abs(x)^(4/3)")
    g = conjugate(f)
    for y in (-1, 1):
        assert brute_conjugate(f, float(y)) == pytest.approx(27 / 256, abs=1e-12)
        assert eval_pwf(g, y) == Fraction(27, 256)
