"""Exact identities on generated convex PLQ functions.

A PLQ (piecewise linear-quadratic) function with rational data stays
PLQ with rational data under conjugation and proximal maps, so the
identities below hold exactly at rational points:

* Moreau decomposition: prox_f(x) + prox_{f*}(x) = x;
* Fenchel-Moreau: f** = f;
* Fenchel-Young: f(x) + f*(y) >= x*y, with equality exactly when y is
  in the subdifferential of f at x;
* graph inversion: u in T(x) exactly when x is in T^-1(u), for
  T = subdifferential(f), and T^-1^-1 = T.

The functions are built as the antiderivative of a nondecreasing
piecewise-affine slope, so every one is convex and continuous.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pwconvex import (
    AssumptionEnv,
    biconjugate,
    conjugate,
    eval_op,
    eval_pwf,
    invert,
    parse_pwf,
    prox,
    subdifferential,
)
from pwconvex.expr import evaluate

RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))
NONNEGATIVE = st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2, 3]))


def q(v: Fraction) -> str:
    return f"({v.numerator}/{v.denominator})"


@st.composite
def plq_functions(draw):
    """(DSL text, rational sample points) of a convex PLQ function with
    0 to 3 breakpoints."""
    bps = sorted(draw(st.sets(RATIONALS, max_size=3)))
    # slope a_i*x + c_i on cell i, jumping up by j_i >= 0 at breakpoint i
    a = [draw(NONNEGATIVE) for _ in range(len(bps) + 1)]
    c = [draw(RATIONALS)]
    for i, b in enumerate(bps):
        c.append(a[i] * b + c[i] + draw(NONNEGATIVE) - a[i + 1] * b)
    # f_i = a_i/2 x^2 + c_i x + d_i, with d_i making f continuous
    d = [draw(RATIONALS)]
    for i, b in enumerate(bps):
        d.append(a[i] / 2 * b * b + c[i] * b + d[i] - a[i + 1] / 2 * b * b - c[i + 1] * b)
    bodies = [f"{q(a[i] / 2)}*x^2 + {q(c[i])}*x + {q(d[i])}" for i in range(len(bps) + 1)]
    if not bps:
        text = bodies[0]
    else:
        guards = ([f"x < {q(bps[0])}"]
                  + [f"{q(lo)} <= x & x < {q(hi)}" for lo, hi in zip(bps, bps[1:])]
                  + [f"x >= {q(bps[-1])}"])
        text = "pw{ " + " ; ".join(f"{g} -> {body}" for g, body in zip(guards, bodies)) + " }"
    points = draw(st.lists(RATIONALS, min_size=1, max_size=3)) + bps
    return text, points


def exact(v) -> Fraction:
    assert isinstance(v, Fraction), v
    return v


@settings(max_examples=50, deadline=None)
@given(plq_functions())
def test_moreau_decomposition_and_biconjugate(case):
    text, points = case
    f = parse_pwf(text, AssumptionEnv.empty())
    P, Q, f2 = prox(f, 1), prox(conjugate(f), 1), biconjugate(f)
    for x in points:
        p, pstar = eval_op(P, x), eval_op(Q, x)
        assert p.tag == pstar.tag == "point"
        assert exact(evaluate(p.lo)) + exact(evaluate(pstar.lo)) == x
        assert exact(eval_pwf(f2, x)) == exact(eval_pwf(f, x))


@settings(max_examples=30, deadline=None)
@given(plq_functions(), st.lists(RATIONALS, min_size=1, max_size=3))
def test_fenchel_young(case, ys):
    text, points = case
    f = parse_pwf(text, AssumptionEnv.empty())
    g, sd = conjugate(f), subdifferential(f)
    for x in points:
        fx = exact(eval_pwf(f, x))
        for y in ys:
            gy = eval_pwf(g, y)
            assert gy == float("inf") or fx + exact(gy) >= x * y
        s = eval_op(sd, x)
        for y in {exact(evaluate(s.lo)), exact(evaluate(s.hi))}:
            assert fx + exact(eval_pwf(g, y)) == x * y


def ends(v) -> tuple:
    """The tag and exact ends of a set value (infinite ends as floats)."""
    return (v.tag,) + tuple(e if isinstance(e, float) else exact(evaluate(e)) for e in v.bounds())


@settings(max_examples=40, deadline=None)
@given(plq_functions())
def test_inverse_holds_the_flipped_graph(case):
    text, points = case
    T = subdifferential(parse_pwf(text, AssumptionEnv.empty()))
    Tinv = invert(T)
    TT = invert(Tinv)
    for x in points:
        v = eval_op(T, x)
        for u in {exact(evaluate(e)) for e in v.bounds()}:
            _, lo, hi = ends(eval_op(Tinv, u))
            assert lo <= x <= hi, (u, x)
        assert ends(eval_op(TT, x)) == ends(v)
