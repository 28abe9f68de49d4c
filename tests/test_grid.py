"""The float reader of a grid (``Grid.float_view``) against the exact one.

``verify_penalty`` reads the proximal map of a candidate penalty at 500
float points through the view and ``sample_graph`` draws its points
through the view's kernels.  Both must decide as the exact reader
``eval_op`` does: the view reads a piece in floats only away from every
breakpoint, and the loops that ran ``eval_op`` and ``numeric.at`` per
point stay here as references.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwconvex import (
    AssumptionEnv,
    eval_op,
    invert,
    numeric,
    parse_operator,
    parse_pwf,
    prox,
    recover_penalty,
    sample_graph,
    subdifferential,
    verify_penalty,
)
from pwconvex.conv import _shift_by
from pwconvex.grid import BREAKPOINT_BAND
from pwconvex.oracle import DEFAULT_SEED, SAMPLE_WINDOW
from pwconvex.penalty import HALF_SQUARE
from test_plq_properties import plq_functions

INF = math.inf
EMPTY = AssumptionEnv.empty()
L_POS = AssumptionEnv.parse(["0 < l"])

# threshold operators in their threshold t, as in the penalty examples
THRESHOLDS = {
    "soft": "sd{ x < -t -> {x + t} ; x = -t -> {0} ; -t < x & x < t -> {0} ; x = t -> {0} ; x > t -> {x - t} }",
    "hard": "sd{ x < -t -> {x} ; x = -t -> {-t, 0} ; -t < x & x < t -> {0} ; x = t -> {0, t} ; x > t -> {x} }",
    "firm": (
        "sd{ x < -2*t -> {x} ; x = -2*t -> {-2*t} ; -2*t < x & x < -t -> {2*x + 2*t} ; x = -t -> {0} ;"
        " -t < x & x < t -> {0} ; x = t -> {0} ; t < x & x < 2*t -> {2*x - 2*t} ; x = 2*t -> {2*t} ; x > 2*t -> {x} }"
    ),
    "clamp": (
        "sd{ x < -t -> {-t} ; x = -t -> {-t} ; -t < x & x < t + 1/2 -> {x} ;"
        " x = t + 1/2 -> {t + 1/2} ; x > t + 1/2 -> {t + 1/2} }"
    ),
}

POSITIVE = st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 3, 4, 7]))
POINTS = st.lists(st.floats(-2 * SAMPLE_WINDOW, 2 * SAMPLE_WINDOW), min_size=1, max_size=20)


def threshold(kind: str, t):
    """The threshold operator at a rational t, or at the parameter l > 0
    for t = "l"."""
    text = THRESHOLDS[kind].replace("t", "l" if t == "l" else f"({t})")
    return parse_operator(text, L_POS if t == "l" else EMPTY)


def proximal_map(f):
    """The map verify_penalty reads: the inverse of the subdifferential
    of f + x^2/2."""
    return invert(subdifferential(_shift_by(f, HALF_SQUARE, weakly_convex=False)))


def assert_view_matches_exact(T, xs) -> None:
    """At xs, at every float breakpoint and at its float neighbours, the
    view reads a point wherever it reads anything, within 1e-12 of
    max(1, |u|) of ``eval_op``, and leaves a point to ``eval_op`` only
    near a breakpoint or where the exact value is not a point."""
    binding = numeric.binding(T.env)
    view = T.float_view(binding)
    near = [x for b in view.breakpoints for x in (b, math.nextafter(b, -INF), math.nextafter(b, INF))]
    for x in near:
        assert view.at(x) is None, x
    for x in list(xs) + near:
        u = view.at(x)
        v = eval_op(T, x, params=binding or None)
        if u is None:
            assert v.tag != "point" or any(
                abs(x - b) <= BREAKPOINT_BAND * max(1.0, abs(b)) for b in view.breakpoints
            ), (x, str(v))
            continue
        assert v.tag == "point", (x, u, str(v))
        assert abs(numeric.value(v.lo, binding) - u) <= 1e-12 * max(1.0, abs(u)), (x, u, str(v))


@settings(max_examples=30, deadline=None)
@given(plq_functions(), POINTS)
def test_view_on_plq_operators(case, xs):
    f = parse_pwf(case[0], EMPTY)
    for T in (subdifferential(f), prox(f, 1), invert(subdifferential(f))):
        assert_view_matches_exact(T, xs)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(THRESHOLDS)), st.one_of(POSITIVE, st.just("l")), POINTS)
def test_view_on_thresholds_and_their_proximal_maps(kind, t, xs):
    T = threshold(kind, t)
    assert_view_matches_exact(T, xs)
    assert_view_matches_exact(proximal_map(recover_penalty(T)), xs)


def reference_sample_graph(T, n, rng, window=SAMPLE_WINDOW):
    """``sample_graph`` as it read pieces before the view: ``numeric.at``
    (the tree walk) at every point."""
    env = T.env
    binding = numeric.binding(env)
    pts = []
    for b, v in zip(T.breakpoints, T.values):
        if v.tag == "empty":
            continue
        xb = numeric.value(b, binding)
        if v.tag == "point":
            us = [numeric.value(v.lo, binding)]
        elif v.tag == "all":
            us = [-window, 0.0, window]
        else:
            lo = -window if isinstance(v.lo, float) else numeric.value(v.lo, binding)
            hi = window if isinstance(v.hi, float) else numeric.value(v.hi, binding)
            us = [lo, 0.5 * (lo + hi), hi]
        pts.extend((xb, u) for u in us)
    live = [i for i, p in enumerate(T.pieces) if not p.empty]
    if live:
        per = max(1, (n - len(pts)) // len(live) + 1)
        for i in live:
            clipped = numeric.clip(env, *T.interval(i), window)
            if clipped is None:
                continue
            for _ in range(per):
                x = rng.uniform(*clipped)
                u = numeric.at(T.pieces[i].body, binding, x)
                if u is not None:
                    pts.append((x, u))
    rng.shuffle(pts)
    return pts[:n] if len(pts) > n else pts


@pytest.mark.parametrize("T", [threshold("clamp", "l"), threshold("firm", Fraction(1, 3)),
                               proximal_map(parse_pwf("pw{ x < 0 -> inf ; x >= 0 -> x^4/4 + x }", EMPTY))],
                         ids=["clamp_l", "firm", "implicit"])
def test_sample_graph_is_the_walk_bit_for_bit(T):
    assert sample_graph(T, 500, random.Random(7)) == reference_sample_graph(T, 500, random.Random(7))


def reference_verify(T, f, n=500, tol=1e-9, seed=DEFAULT_SEED):
    """(passed, max_violation, samples, witness) of ``verify_penalty`` as
    it ran before the view: ``eval_op`` at every sample."""
    P = proximal_map(f)
    binding = numeric.binding(T.env)
    pts = sample_graph(T, n, random.Random(seed))
    worst, witness = 0.0, None
    for x, u in pts:
        v = eval_op(P, x, params=binding or None)
        if v.tag == "empty":
            d = INF
        elif v.tag == "all":
            d = 0.0
        else:
            lo, hi = numeric.value(v.lo, binding), numeric.value(v.hi, binding)
            d = lo - u if u < lo else u - hi if u > hi else 0.0
        if d > worst:
            worst, witness = d, (x, u)
    passed = worst <= tol
    return passed, worst, len(pts), None if passed else witness


@pytest.mark.parametrize("kind", sorted(THRESHOLDS))
@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1), "l"])
@pytest.mark.parametrize("penalty", ["recovered", "abs"])
def test_verify_matches_the_exact_loop(kind, t, penalty):
    T = threshold(kind, t)
    f = recover_penalty(T) if penalty == "recovered" else parse_pwf("abs(x)", T.env)
    rep = verify_penalty(T, f)
    passed, worst, samples, witness = reference_verify(T, f)
    assert (rep.passed, rep.samples, rep.witness) == (passed, samples, witness)
    assert rep.max_violation == pytest.approx(worst, rel=1e-12, abs=0.0)
    if penalty == "recovered":
        assert rep.passed
