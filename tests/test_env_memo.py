"""The per-environment memo of comparisons and one-sided limits.

An environment keeps each comparison and each structural limit it has
decided (``AssumptionEnv.memo``).  A warmed environment must answer as
a fresh one with the same facts does, never with a verdict taken under
other facts, and the memo stays within ENV_MEMO_SIZE.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwconvex import assumptions, limits
from pwconvex.assumptions import EMPTY_ENV, AssumptionEnv, Ordering
from pwconvex.errors import InconsistentEnv
from pwconvex.expr import Const, Sub, contains_var, parse_expr
from pwconvex.simplify import simplify

PARAMS = ("a", "b", "c")
SMALL = st.integers(-3, 3)
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


def q(v: Fraction) -> str:
    return f"({v.numerator}/{v.denominator})"


def affine(coeffs, const: Fraction) -> str:
    return " + ".join([f"{q(Fraction(k))}*{p}" for p, k in zip(PARAMS, coeffs)] + [q(const)])


@st.composite
def fact_sets(draw):
    """0 to 3 consistent facts ``affine < 0`` or ``affine <= 0``."""
    facts = []
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.tuples(SMALL, SMALL, SMALL))
        rel = draw(st.sampled_from(["<", "<="]))
        facts.append(f"{affine(coeffs, draw(RATIONALS))} {rel} 0")
    try:
        AssumptionEnv.parse(facts)
    except InconsistentEnv:
        assume(False)
    return facts


DIFFERENCES = st.lists(st.builds(affine, st.tuples(SMALL, SMALL, SMALL), RATIONALS), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(fact_sets(), DIFFERENCES, st.randoms(use_true_random=False))
def test_a_warmed_env_compares_as_a_fresh_one(facts, texts, rnd):
    env = AssumptionEnv.parse(facts)
    pairs = [(Const(0), parse_expr(t)) for t in texts] + [(parse_expr(t), parse_expr(u)) for t in texts for u in texts]
    # warm in one order, ask again in another
    for a, b in pairs:
        env.compare(a, b)
    rnd.shuffle(pairs)
    for a, b in pairs:
        fresh = AssumptionEnv.parse(facts)
        assert fresh == env and fresh._memo == {}
        assert env.compare(a, b) == fresh.compare(a, b)


@st.composite
def bodies_and_points(draw):
    """(pieces, breakpoints): bodies p*x^2 + r*x + s, some with an l*x
    term or a pole k/(x - b) at a breakpoint, and 1 to 3 breakpoints."""
    bps = sorted(draw(st.sets(RATIONALS, min_size=1, max_size=3)))
    bodies = []
    for _ in range(len(bps) + 1):
        p, r, s = draw(RATIONALS), draw(RATIONALS), draw(RATIONALS)
        text = f"{q(p)}*x^2 + {q(r)}*x + {q(s)}"
        if draw(st.booleans()):
            text += " + l*x"
        if draw(st.booleans()):
            text += f" + {q(draw(RATIONALS))}/(x - {q(draw(st.sampled_from(bps)))})"
        bodies.append(parse_expr(text))
    return bodies, [Const(b) for b in bps]


def limits_of(bodies, bps, env_of):
    """Each body's limits at each breakpoint from both sides and at both
    infinities, each asked of the env ``env_of()`` gives."""
    out = []
    for body in bodies:
        for b in bps:
            for side in ("left", "right"):
                out.append(limits.one_sided_limit(body, b, side, env_of()))
        for direction in (1, -1):
            out.append(limits.limit_at_infinity(body, direction, env_of()))
    return out


def same(u, v) -> bool:
    """Equal and of the same kind: the same node, or the same float."""
    return type(u) is type(v) and u == v


@settings(max_examples=60, deadline=None)
@given(bodies_and_points(), st.sampled_from([("-1 <= l", "l <= 1"), ("0 < l",), ("l < 0", "-2 < l")]))
def test_a_warmed_env_takes_limits_as_a_fresh_one(case, facts):
    bodies, bps = case
    env = AssumptionEnv.parse(list(facts))
    first = limits_of(bodies, bps, lambda: env)
    if any(contains_var(simplify(body)) for body in bodies):
        assert any(isinstance(k, tuple) and k[0] == "limit" for k in env._memo)
    again = limits_of(bodies, bps, lambda: env)
    # each limit asked alone, of an env that has decided nothing else
    fresh = limits_of(bodies, bps, lambda: AssumptionEnv.parse(list(facts)))
    for u, v, w in zip(first, again, fresh):
        assert same(u, v) and same(u, w), (u, v, w)


def test_verdicts_never_cross_envs():
    pos, neg = AssumptionEnv.parse(["0 < a"]), AssumptionEnv.parse(["a < 0"])
    a, zero = parse_expr("a"), Const(0)
    pole = parse_expr("a/x")
    for first, second, order, inf in ((pos, neg, Ordering.GREATER, -math.inf), (neg, pos, Ordering.LESS, math.inf)):
        # warm ``first``, then ask ``second`` and ``first`` again
        first.compare(zero, a)
        limits.one_sided_limit(pole, zero, "right", first)
        assert second.compare(zero, a) == order
        assert limits.one_sided_limit(pole, zero, "right", second) == inf
    assert pos.compare(zero, a) == Ordering.LESS and neg.compare(zero, a) == Ordering.GREATER
    assert limits.one_sided_limit(pole, zero, "right", pos) == math.inf
    assert limits.one_sided_limit(pole, zero, "right", neg) == -math.inf


# integral values of both types, numerators past 2**64, and fractions
EXACT = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**80), 2**80),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70)),
    RATIONALS,
)


@st.composite
def exact_pairs(draw):
    a = draw(EXACT)
    b = draw(st.one_of(st.just(a), st.just(Fraction(a)), st.just(a + Fraction(1, 2**70)), EXACT))
    return a, b


@settings(max_examples=200, deadline=None)
@given(exact_pairs())
def test_two_exact_constants_are_ordered_as_their_difference(pair):
    a, b = pair
    diff = simplify(Sub(Const(b), Const(a))).value
    want = Ordering.EQUAL if diff == 0 else Ordering.LESS if diff > 0 else Ordering.GREATER
    env = AssumptionEnv()
    assert env.compare(Const(a), Const(b)) == want
    assert env.compare(a, b) == want
    assert env._memo == {}


def test_exact_constants_are_compared_without_simplification(monkeypatch):
    def unused(e):
        raise AssertionError(f"simplify({e}) called")

    monkeypatch.setattr(assumptions, "simplify", unused)
    env = AssumptionEnv()
    assert env.compare(Const(Fraction(3)), Const(3)) == Ordering.EQUAL
    assert env.compare(Const(Fraction(1, 3)), Const(Fraction(1, 2))) == Ordering.LESS
    assert env.compare(10**20 + 1, Fraction(10**20)) == Ordering.GREATER
    assert env._memo == {}


def test_a_float_constant_is_compared_through_the_float_difference():
    env = AssumptionEnv()
    assert env.compare(Const(0.1), Const(Fraction(1, 10))) == Ordering.EQUAL
    assert env.compare(Const(Fraction(1, 3)), Const(0.3333333333333333)) == Ordering.EQUAL
    assert env.compare(Const(0.5), Const(Fraction(2, 3))) == Ordering.LESS
    assert env._memo == {}


def count_fm(monkeypatch) -> list:
    calls = []
    original = assumptions._infeasible

    def counted(constraints):
        calls.append(len(constraints))
        return original(constraints)

    monkeypatch.setattr(assumptions, "_infeasible", counted)
    return calls


def test_a_comparison_is_decided_once_per_env(monkeypatch):
    env = AssumptionEnv.parse(["0 < a", "a < b"])
    calls = count_fm(monkeypatch)
    assert env.compare(parse_expr("a"), parse_expr("b + 1")) == Ordering.LESS
    assert calls
    calls.clear()
    assert env.compare(parse_expr("a"), parse_expr("b + 1")) == Ordering.LESS
    assert env.compare(parse_expr("a - 1"), parse_expr("b")) == Ordering.LESS  # the same difference
    assert not calls
    # an equal env has its own memo and decides again
    assert AssumptionEnv.parse(["0 < a", "a < b"]).compare(parse_expr("a"), parse_expr("b + 1")) == Ordering.LESS
    assert calls


def test_the_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(assumptions, "ENV_MEMO_SIZE", 8)
    env = AssumptionEnv.parse(["0 < a", "a < 1"])
    a = parse_expr("a")
    for k in range(-20, 21):
        # a < k/10 exactly when 10 <= k; a > k/10 when k <= 0
        expected = Ordering.LESS if k >= 10 else Ordering.GREATER if k <= 0 else Ordering.UNDECIDABLE
        assert env.compare(a, Const(Fraction(k, 10))) == expected
        assert len(env._memo) <= 8
    assert env.compare(a, Const(Fraction(2))) == Ordering.LESS


def test_a_decision_that_raises_is_not_kept():
    env = AssumptionEnv()
    asked = []

    def decide():
        asked.append(1)
        raise ZeroDivisionError("no verdict")

    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            env.memo(("probe",), decide)
    assert len(asked) == 2 and ("probe",) not in env._memo


def test_merge_without_new_facts_is_the_env_itself(monkeypatch):
    env = AssumptionEnv.parse(["0 < a", "a < b"])
    env.compare(Const(0), parse_expr("b"))
    memo = dict(env._memo)
    known, new = AssumptionEnv.parse(["a < b"]), AssumptionEnv.parse(["b < 3"])
    calls = count_fm(monkeypatch)
    assert env.merge(EMPTY_ENV) is env
    assert env.merge(known) is env
    assert env.merge(env) is env
    assert not calls and env._memo == memo
    merged = env.merge(new)
    assert calls and merged == AssumptionEnv.parse(["0 < a", "a < b", "b < 3"])
    assert merged._memo == {}
