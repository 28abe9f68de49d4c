"""The float fallback: the binding, the extended-real order, clipping."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwconvex import numeric
from pwconvex.assumptions import EMPTY_ENV, AssumptionEnv, Ordering
from pwconvex.errors import UndecidableComparison
from pwconvex.expr import as_expr, evaluate, parse_expr

INF = math.inf
L_POS = AssumptionEnv.parse(["0 < l", "l < 2"])


def e(text):
    return parse_expr(text)


# (env, a, b, order): a is LESS/EQUAL/GREATER than b, or UNDECIDABLE
ORDER_TABLE = [
    # infinities decide before anything is evaluated
    (EMPTY_ENV, -INF, -INF, Ordering.EQUAL),
    (EMPTY_ENV, -INF, INF, Ordering.LESS),
    (EMPTY_ENV, INF, -INF, Ordering.GREATER),
    (EMPTY_ENV, e("3"), INF, Ordering.LESS),
    (EMPTY_ENV, e("3"), -INF, Ordering.GREATER),
    (L_POS, e("l"), INF, Ordering.LESS),
    # exact: rational constants and Fourier-Motzkin
    (EMPTY_ENV, e("1/3"), e("1/2"), Ordering.LESS),
    (EMPTY_ENV, e("1/2"), e("2/4"), Ordering.EQUAL),
    (L_POS, e("0"), e("l"), Ordering.LESS),
    (L_POS, e("2*l"), e("4"), Ordering.LESS),
    # parametric beyond the facts: floats at the binding l = 1
    (L_POS, e("l"), e("1/2"), Ordering.GREATER),
    (L_POS, e("exp(l)"), e("2"), Ordering.GREATER),
    (L_POS, e("ln(l)"), e("0"), Ordering.EQUAL),
    # float-only: parameter-free irrational values, and values without a float
    (EMPTY_ENV, e("exp(1)"), e("3"), Ordering.LESS),
    (EMPTY_ENV, e("ln(2)"), e("7/10"), Ordering.LESS),
    (L_POS, e("ln(l - 2)"), e("0"), Ordering.UNDECIDABLE),
    (EMPTY_ENV, e("a"), e("1"), Ordering.UNDECIDABLE),  # a is in no fact
]


@pytest.mark.parametrize("env, a, b, expected", ORDER_TABLE)
def test_extended_real_order(env, a, b, expected):
    assert numeric.order(env, a, b) == expected
    assert numeric.less(env, a, b) == (expected == Ordering.LESS)
    assert numeric.equal(env, a, b) == (expected == Ordering.EQUAL)
    mirrored = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS}
    assert numeric.order(env, b, a) == mirrored.get(expected, expected)


def test_equality_is_exact_then_structural_without_compare():
    class Counting(AssumptionEnv):
        calls = 0

        def compare(self, a, b):
            Counting.calls += 1
            return super().compare(a, b)

    env = Counting()
    assert numeric.equal(env, e("1/2"), e("1/2"))
    assert numeric.equal(env, e("exp(l)"), e("exp(l)"))
    assert not numeric.equal(env, e("1/2"), e("1/3"))
    assert Counting.calls == 0


def test_tolerance_band():
    one = e("1")
    inside, outside = Fraction(1, 10**10), Fraction(1, 10**8)
    assert not numeric.equal(EMPTY_ENV, as_expr(1 + inside), one)  # rational constants compare exactly
    assert numeric.equal(EMPTY_ENV, e(f"exp({inside})"), e(f"1 + {inside}"))
    assert numeric.order(EMPTY_ENV, e(f"exp({outside})"), one) == Ordering.GREATER
    # inside the band the order falls to floats and reads EQUAL, while the
    # sound comparison says it cannot tell
    band = e(f"exp({inside})")
    assert numeric.order(EMPTY_ENV, band, one) == Ordering.EQUAL
    assert EMPTY_ENV.compare(band, one) == Ordering.UNDECIDABLE


def test_compare_does_not_call_a_tiny_irrational_difference_equal():
    # the true difference is about 5e-31; a float cannot see it
    a, b = e("exp(1/10^15)"), e("1 + 1/10^15")
    assert EMPTY_ENV.compare(a, b) != Ordering.EQUAL
    assert EMPTY_ENV.compare(e("exp(1)"), e("3")) == Ordering.LESS


def test_clip_inside_and_beyond_the_window():
    assert numeric.clip(EMPTY_ENV, -INF, INF, 30.0) == (-30.0, 30.0)
    assert numeric.clip(EMPTY_ENV, e("1/2"), e("2"), 30.0) == (0.5, 2.0)
    # beyond the window: a strip of width 1 at the near end
    assert numeric.clip(EMPTY_ENV, e("40"), INF, 30.0) == (40.0, 41.0)
    assert numeric.clip(EMPTY_ENV, e("30"), INF, 30.0) == (30.0, 31.0)
    assert numeric.clip(EMPTY_ENV, e("40"), e("40 + 1/2"), 30.0) == (40.0, 40.5)
    assert numeric.clip(EMPTY_ENV, -INF, e("0 - 50"), 30.0) == (-51.0, -50.0)
    # no interior at the binding, or an end without a float
    assert numeric.clip(EMPTY_ENV, e("2"), e("1"), 30.0) is None
    assert numeric.clip(L_POS, e("ln(l - 2)"), INF, 30.0) is None


def test_sort_key_raises_for_a_point_without_a_float():
    key = numeric.sort_key(L_POS)
    assert sorted([e("2*l"), e("1/2"), e("exp(l)")], key=key) == [e("1/2"), e("2*l"), e("exp(l)")]
    for point in (e("ln(0 - l)"), e("a")):
        with pytest.raises(UndecidableComparison):
            key(point)


def test_binding_is_computed_once_per_env_and_is_read_only(monkeypatch):
    calls = []
    feasible_point = AssumptionEnv.feasible_point
    monkeypatch.setattr(AssumptionEnv, "feasible_point", lambda env: calls.append(env) or feasible_point(env))
    env = AssumptionEnv.parse(["0 < l", "l < a"])
    first = numeric.binding(env)
    assert numeric.binding(env) is first
    numeric.less(env, e("exp(l)"), e("exp(a)"))
    numeric.clip(env, e("l"), e("a"), 30.0)
    assert calls == [env]
    with pytest.raises(TypeError):
        first["l"] = Fraction(5)
    # the cache is not part of the value
    twin = AssumptionEnv.parse(["0 < l", "l < a"])
    assert twin == env and hash(twin) == hash(env) and repr(twin) == repr(env)


PARAMS = ("a", "b", "c")


@st.composite
def affine_facts(draw):
    """1-3 parameters, each inside a box, then extra facts that hold at a
    hidden rational witness point, so the set is consistent."""
    names = PARAMS[: draw(st.integers(1, 3))]
    witness = {p: Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))) for p in names}
    facts = []
    for p in names:
        facts.append(f"{witness[p] - draw(st.integers(1, 3))} < {p}")
        facts.append(f"{p} <= {witness[p] + draw(st.integers(0, 3))}")
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {p: draw(st.integers(-3, 3)) for p in names}
        lhs = " + ".join(f"({c})*{p}" for p, c in coeffs.items())
        at_witness = sum(c * witness[p] for p, c in coeffs.items())
        slack = draw(st.integers(0, 2))
        rel = "<" if slack else "<="
        facts.append(f"{lhs} {rel} {at_witness + slack}")
    return facts


@settings(max_examples=40, deadline=None)
@given(affine_facts())
def test_binding_satisfies_every_fact(facts):
    env = AssumptionEnv.parse(facts)
    point = numeric.binding(env)
    assert env.admits(dict(point))
    for fact in facts:
        rel = "<=" if "<=" in fact else "<"
        lhs, rhs = (parse_expr(side) for side in fact.split(rel))
        lv, rv = evaluate(lhs, params=point), evaluate(rhs, params=point)
        assert lv < rv if rel == "<" else lv <= rv, (fact, dict(point))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(-(2**80), 2**80),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
))
@example(10**400)
@example(-(10**400))
@example(Fraction(10**400, 3))
@example(2**53 + 1)
@example(-0.0)
def test_a_constant_reads_as_the_float_of_its_value(v):
    """``value`` and ``at`` read a constant without the tree walk, to the
    float (or the overflow) of ``evaluate``'s exact value."""
    try:
        want = float(evaluate(as_expr(v))).hex()
    except OverflowError:
        want = None
    for c in (v, as_expr(v)):
        for x in (None, 1.5, parse_expr("1/2")):
            if want is None:
                with pytest.raises(OverflowError):
                    numeric.value(c, {}, x)
            else:
                assert numeric.value(c, {}, x).hex() == want
            got = numeric.at(c, {}, x)
            assert (None if got is None else got.hex()) == want


def test_a_constant_is_read_without_evaluate(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("evaluate called for a constant")

    monkeypatch.setattr(numeric, "evaluate", no_walk)
    for v in (3, Fraction(1, 3), 0.25, 10**400):
        want = None if v == 10**400 else float(v)
        assert numeric.at(v, {}) == want and numeric.at(as_expr(v), {}) == want
