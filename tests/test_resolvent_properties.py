"""Firm nonexpansiveness of resolvents on smooth convex bodies.

The proximal map p = (I + df)^-1 of a proper lsc convex f is firmly
nonexpansive: (p(u) - p(v))^2 <= (u - v)(p(u) - p(v)) for all u, v
(Bauschke & Combettes, *Convex Analysis and Monotone Operator Theory in
Hilbert Spaces*, 2nd ed., 2017, Prop. 12.28).  For the bodies below the
prox has no closed form, so it is a bisection-backed inverse evaluated
in floats; the inequality is checked within 1e-12 relative.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pwconvex import eval_op, parse_pwf, prox
from pwconvex.expr import evaluate, is_numeric_node

NONNEGATIVE = st.builds(Fraction, st.integers(0, 8), st.sampled_from([1, 2, 3, 4]))
NONZERO = st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3])).flatmap(
    lambda a: st.sampled_from([a, -a]))
BODIES = st.one_of(
    NONNEGATIVE.map(lambda c: f"x^4 + ({c.numerator}/{c.denominator})*x^2"),
    NONZERO.map(lambda a: f"exp(({a.numerator}/{a.denominator})*x)"),
)
POINTS = st.lists(st.integers(-48, 48).map(lambda k: k / 8), min_size=2, max_size=2, unique=True)


@settings(max_examples=40, deadline=None)
@given(BODIES, POINTS)
def test_prox_is_firmly_nonexpansive(text, uv):
    p = prox(parse_pwf(text), 1)
    assert all(is_numeric_node(piece.body) for piece in p.pieces)
    u, v = uv
    pu, pv = (float(evaluate(eval_op(p, t).lo)) for t in (u, v))
    lhs, rhs = (pu - pv) ** 2, (u - v) * (pu - pv)
    assert lhs <= rhs + 1e-12 * max(abs(lhs), abs(rhs)), (text, u, v, pu, pv)
