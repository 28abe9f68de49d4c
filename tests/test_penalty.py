"""Penalty recovery from prox-like operators, and graph verification."""

from fractions import Fraction

import pytest

from pwconvex import (
    AssumptionEnv,
    conjugate,
    identity_operator,
    integ,
    maximal_extension,
    parse_operator,
    parse_pwf,
    prox,
    recover_penalty,
    verify_penalty,
)
from pwconvex.conv import _shift_by
from pwconvex.expr import Neg, parse_expr
from pwconvex.penalty import HALF_SQUARE
from pwconvex.pwf import build_function, eval_pwf

ENV = AssumptionEnv.empty()
INF = float("inf")

HARD = (
    "sd{ x < -1 -> {x} ; x = -1 -> {-1, 0} ; -1 < x & x < 1 -> {0} ;"
    " x = 1 -> {0, 1} ; x > 1 -> {x} }"
)


class TestRecovery:
    def test_hard_threshold_penalty(self):
        p = recover_penalty(parse_operator(HARD, ENV))
        # |u| - u^2/2 - 1/2 inside [-1, 1], flat zero tails
        assert eval_pwf(p, -4) == 0
        assert eval_pwf(p, -1) == 0
        assert eval_pwf(p, Fraction(-1, 2)) == Fraction(-1, 8)
        assert eval_pwf(p, 0) == Fraction(-1, 2)
        assert eval_pwf(p, Fraction(1, 2)) == Fraction(-1, 8)
        assert eval_pwf(p, 1) == 0
        assert eval_pwf(p, 10) == 0
        assert len(p.breakpoints) == 3

    def test_identity_gives_zero(self):
        p = recover_penalty(identity_operator("x", ENV))
        assert len(p.breakpoints) == 0
        assert eval_pwf(p, -7) == 0 and eval_pwf(p, 3) == 0

    def test_clamp_gives_box_indicator(self):
        proj = parse_operator(
            "sd{ x < -1 -> {-1} ; x = -1 -> {-1} ; -1 < x & x < 2 -> {x} ;"
            " x = 2 -> {2} ; x > 2 -> {2} }",
            ENV,
        )
        p = recover_penalty(proj)
        # indicator of [-1, 2] up to an additive constant
        c = eval_pwf(p, 0)
        assert eval_pwf(p, -1) == c
        assert eval_pwf(p, 2) == c
        assert eval_pwf(p, Fraction(-3, 2)) == INF
        assert eval_pwf(p, 3) == INF

    def test_soft_threshold_round_trip(self):
        R = prox(parse_pwf("abs(x)", ENV), 1)
        p = recover_penalty(R)
        # abs up to an additive constant
        c = eval_pwf(p, 0)
        for u in (-3, -1, Fraction(1, 2), 2):
            assert eval_pwf(p, u) - c == abs(Fraction(u))


class TestRecoveryPipeline:
    @pytest.mark.parametrize("text", [
        HARD,
        "sd{ x < -1 -> {x + 1} ; -1 <= x & x <= 1 -> {0} ; x > 1 -> {x - 1} }",
        "sd{ x < -1 -> {-1} ; -1 <= x & x <= 2 -> {x} ; x > 2 -> {2} }",
        # a gap between -1 and 1, and a value that is a point
        "sd{ x < -1 -> {x} ; x = -1 -> {-1} ; -1 < x & x < 1 -> empty ; x = 1 -> {1} ; x > 1 -> {x} }",
        "sd{ x < 0 -> empty ; x = 0 -> [0, 1] ; x > 0 -> {x/2 + 1} }",
    ])
    def test_integ_needs_no_maximal_extension(self, text):
        # the pipeline through the maximal extension, as reference: the
        # same penalty up to an additive constant
        T = parse_operator(text, ENV)
        p = recover_penalty(T)
        ref = _shift_by(conjugate(integ(maximal_extension(T))), Neg(HALF_SQUARE), weakly_convex=True)
        assert p.varname == T.varname
        shifts = set()
        for u in (-3, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, Fraction(3, 2), 4):
            a, b = eval_pwf(p, u), eval_pwf(ref, u)
            if a == INF or b == INF:
                assert a == b, u
            else:
                shifts.add(a - b)
        assert len(shifts) == 1


class TestVerification:
    def test_recovered_penalty_passes(self):
        T = parse_operator(HARD, ENV)
        rep = verify_penalty(T, recover_penalty(T))
        assert rep.passed
        assert rep.max_violation == 0.0
        assert rep.samples > 0
        assert rep.witness is None and rep.reason is None

    def test_wrong_penalty_fails_with_witness(self):
        T = parse_operator(HARD, ENV)
        rep = verify_penalty(T, parse_pwf("abs(x)", ENV))
        assert not rep.passed
        assert rep.max_violation > 0.1
        x, u = rep.witness
        # hard threshold keeps points beyond 1, soft threshold shrinks them
        assert abs(x) > 1 or abs(u) > 0

    def test_too_concave_candidate_reports_reason(self):
        cap = build_function("x", [], [parse_expr("-x^2")], [], ENV, weakly_convex=True)
        rep = verify_penalty(parse_operator(HARD, ENV), cap)
        assert not rep.passed
        assert rep.reason is not None and "not convex" in rep.reason
        assert rep.samples == 0

    def test_deterministic_given_seed(self):
        T = parse_operator(HARD, ENV)
        a = verify_penalty(T, parse_pwf("abs(x)", ENV), seed=7)
        b = verify_penalty(T, parse_pwf("abs(x)", ENV), seed=7)
        assert a.max_violation == b.max_violation and a.witness == b.witness


class TestProxConsistency:
    def test_prox_of_recovered_covers_graph(self):
        # independent of verify_penalty: spot check a few graph points by hand
        T = parse_operator(HARD, ENV)
        p = recover_penalty(T)
        from pwconvex import eval_op, invert, subdifferential
        from pwconvex.conv import _shift_by
        from pwconvex.penalty import HALF_SQUARE

        from pwconvex.expr import evaluate

        P = invert(subdifferential(_shift_by(p, HALF_SQUARE, weakly_convex=False)))
        for x, u in [(-3, -3), (Fraction(1, 2), 0), (2, 2)]:
            v = eval_op(P, x)
            assert v.tag in ("point", "interval")
            lof = -INF if isinstance(v.lo, float) else float(evaluate(v.lo))
            hif = INF if isinstance(v.hi, float) else float(evaluate(v.hi))
            assert lof - 1e-12 <= float(u) <= hif + 1e-12
