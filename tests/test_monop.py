"""Monotone operator layer: DSL, calculus, resolvents, extension."""

import math
from fractions import Fraction

import pytest

from pwconvex import (
    AssumptionEnv,
    add,
    cli,
    eval_op,
    identity_operator,
    invert,
    maximal_extension,
    parse_operator,
    parse_pwf,
    prox,
    resolvent,
    scale,
    subdifferential,
)
from pwconvex.errors import (
    EmptyOperator,
    InputError,
    NegativeScalar,
    NotMonotone,
    ParseError,
)
from pwconvex.expr import contains_var, evaluate, is_numeric_node, to_text
from pwconvex.monop import ALL_REALS, EMPTY_SET, interval, point
from pwconvex.render import render_operator, render_set

ENV = AssumptionEnv.empty()

HARD_THRESHOLD = (
    "sd{ x < -1 -> {x} ; x = -1 -> {-1, 0} ; -1 < x & x < 1 -> {0} ;"
    " x = 1 -> {0, 1} ; x > 1 -> {x} }"
)


def fval(e):
    return float(evaluate(e))


class TestParsing:
    def test_bare_expression_is_identity_like(self):
        T = parse_operator("x", ENV)
        v = eval_op(T, 7)
        assert v.tag == "point" and fval(v.lo) == 7

    def test_set_forms(self):
        T = parse_operator(HARD_THRESHOLD, ENV)
        v = eval_op(T, -1)
        assert v.tag == "interval"
        assert fval(v.lo) == -1 and fval(v.hi) == 0

    def test_interval_form(self):
        T = parse_operator("sd{ x < 0 -> {-1} ; x = 0 -> [-1, 1] ; x > 0 -> {1} }", ENV)
        v = eval_op(T, 0)
        assert v.tag == "interval" and fval(v.lo) == -1 and fval(v.hi) == 1

    def test_all_and_empty(self):
        T = parse_operator("sd{ x < 0 -> empty ; x = 0 -> all ; x > 0 -> empty }", ENV)
        assert eval_op(T, 0).tag == "all"
        assert eval_op(T, 1).tag == "empty"

    def test_decreasing_rejected(self):
        with pytest.raises(NotMonotone):
            parse_operator("sd{ x < 0 -> {-x} ; x = 0 -> {0} ; x > 0 -> {-x} }", ENV)

    def test_jump_down_at_breakpoint_rejected(self):
        with pytest.raises(NotMonotone):
            parse_operator("sd{ x < 0 -> {x} ; x = 0 -> [-1, 1] ; x > 0 -> {x} }", ENV)

    def test_infinite_endpoints(self):
        T = parse_operator("sd{ x < 0 -> empty ; x = 0 -> [-inf, 1] ; 0 < x & x < 1 -> {x + 1} ;"
                           " x = 1 -> [2, inf] ; x > 1 -> empty }", ENV)
        lo, hi = eval_op(T, 0).bounds()
        assert lo == -math.inf and fval(hi) == 1
        lo, hi = eval_op(T, 1).bounds()
        assert fval(lo) == 2 and hi == math.inf
        assert eval_op(parse_operator("sd{ x < 0 -> empty ; x = 0 -> [-inf, inf] ; x > 0 -> empty }", ENV), 0).tag == "all"

    @pytest.mark.parametrize("value", ["[inf, 1]", "[0, -inf]"])
    def test_infinite_endpoint_on_the_wrong_side_rejected(self, value):
        with pytest.raises(ParseError):
            parse_operator(f"sd{{ x < 0 -> empty ; x = 0 -> {value} ; x > 0 -> empty }}", ENV)

    @pytest.mark.parametrize("v", [EMPTY_SET, point(3), interval(-1, Fraction(1, 2)), interval(0, math.inf),
                                   interval(-math.inf, 2), ALL_REALS])
    def test_str_is_the_rendered_set(self, v):
        assert str(v) == render_set(v)


class TestSubdifferential:
    def test_abs(self):
        S = subdifferential(parse_pwf("abs(x)", ENV))
        assert eval_op(S, -2).tag == "point" and fval(eval_op(S, -2).lo) == -1
        v = eval_op(S, 0)
        assert v.tag == "interval" and fval(v.lo) == -1 and fval(v.hi) == 1

    def test_box_indicator_rays(self):
        f = parse_pwf("pw{ x < -1 -> inf ; -1 <= x & x <= 2 -> 0 ; x > 2 -> inf }", ENV)
        S = subdifferential(f)
        lo = eval_op(S, -1)
        assert lo.tag == "interval" and lo.lo == -math.inf and fval(lo.hi) == 0
        hi = eval_op(S, 2)
        assert hi.tag == "interval" and fval(hi.lo) == 0 and hi.hi == math.inf
        assert eval_op(S, 3).tag == "empty"

    def test_smooth(self):
        S = subdifferential(parse_pwf("x^2/2", ENV))
        assert fval(eval_op(S, 3).lo) == 3


class TestInvert:
    def test_abs_subdifferential(self):
        S = subdifferential(parse_pwf("abs(x)", ENV))
        P = invert(S)
        assert fval(eval_op(P, Fraction(1, 2)).lo) == 0
        assert eval_op(P, 2).tag == "empty"
        v = eval_op(P, 1)
        assert v.tag == "interval" and fval(v.lo) == 0 and v.hi == math.inf

    def test_involution_on_sampled_graph(self):
        T = parse_operator(HARD_THRESHOLD, ENV)
        TT = invert(invert(T))
        for x in (-3, -1, 0, Fraction(1, 2), 1, 4):
            a, b = eval_op(T, x), eval_op(TT, x)
            assert a.tag == b.tag
            if a.tag == "point":
                assert fval(a.lo) == fval(b.lo)

    @pytest.mark.parametrize("text, values", [
        # -(x^2)^(1/2) = -|x| is x on x < 0, so the inverse there is y
        ("sd{ x < 0 -> {0 - (x^2)^(1/2)} ; x >= 0 -> {0} }",
         {-2: -2, Fraction(-1, 3): Fraction(-1, 3)}),
        # -((x + 1)^6)^(1/2) = -|x + 1|^3 is (x + 1)^3 on x < -1
        ("sd{ x < -1 -> {0 - ((x + 1)^6)^(1/2)} ; x >= -1 -> {0} }",
         {-8: -3, Fraction(-1, 27): Fraction(-4, 3)}),
    ])
    def test_each_power_layer_takes_its_own_root_branch(self, capsys, text, values):
        assert cli.main(["invert", text]) == 0
        capsys.readouterr()
        P = invert(parse_operator(text, ENV))
        for y, x in values.items():
            v = eval_op(P, y)
            assert v.tag == "point" and evaluate(v.lo) == x, (y, str(v))

    @pytest.mark.parametrize("text, rows", [
        # a half-line value meets the piece before it and ends the graph
        ("sd{ x < 0 -> {x} ; x = 0 -> [0, inf] ; x > 0 -> empty }",
         ["y < 0  ->  {y}", "y = 0  ->  {0}", "y > 0  ->  {0}"]),
        # three slices meet at -1 and at 1: a constant piece and the ends
        # of two interval values
        ("sd{ x < -1 -> {-1} ; x = -1 -> [-1, 1] ; -1 < x & x < 1 -> {1} ; x = 1 -> [1, 2] ; x > 1 -> {x + 1} }",
         ["y < -1      ->  empty", "y = -1      ->  [-inf, -1]", "-1 < y < 1  ->  {-1}", "y = 1       ->  [-1, 1]",
          "1 < y < 2   ->  {1}", "y = 2       ->  {1}", "y > 2       ->  {-1 + y}"]),
    ])
    def test_slices_that_meet_merge_by_hull(self, text, rows):
        assert render_operator(invert(parse_operator(text, ENV))).split("\n") == rows

    def test_power_of_a_power_inverts_in_closed_form(self):
        P = invert(parse_operator("sd{ x < 0 -> empty ; x >= 0 -> {(x^4)^(1/2)} }", ENV))
        bodies = [p.body for p in P.pieces if not p.empty]
        assert not any(is_numeric_node(b) for b in bodies)
        assert [to_text(b, P.varname) for b in bodies] == ["(y^2)^(1/4)"]


class TestAlgebra:
    def test_add_points(self):
        S1 = subdifferential(parse_pwf("x^2/2", ENV))
        S2 = subdifferential(parse_pwf("abs(x)", ENV))
        T = add(S1, S2)
        assert fval(eval_op(T, 2).lo) == 3
        v = eval_op(T, 0)
        assert v.tag == "interval" and fval(v.lo) == -1 and fval(v.hi) == 1

    def test_add_reads_an_implicit_inverse_at_the_breakpoints(self):
        # y^5 + y has no closed-form inverse; its value at the sign
        # breakpoint is the bisection root of t^5 + t = 1, not the variable
        T = add(invert(parse_operator("y^5 + y", ENV)),
                parse_operator("sd{ x < 1 -> {0} ; x = 1 -> [0, 1] ; x > 1 -> {1} }", ENV))
        assert all(not contains_var(e) for v in T.values for e in (v.lo, v.hi))
        v = eval_op(T, 1)
        assert v.tag == "interval"
        assert (fval(v.lo), fval(v.hi)) == pytest.approx((0.7548776662, 1.7548776662), abs=1e-9)

    def test_add_varname_mismatch(self):
        with pytest.raises(InputError):
            add(parse_operator("x", ENV), parse_operator("y", ENV))

    def test_scale(self):
        T = scale(parse_operator("x", ENV), Fraction(3, 2))
        assert fval(eval_op(T, 2).lo) == 3

    def test_scale_by_zero_flattens(self):
        T = scale(subdifferential(parse_pwf("abs(x)", ENV)), 0)
        assert fval(eval_op(T, 5).lo) == 0
        assert eval_op(T, 0).tag == "point"


class TestResolvent:
    def test_identity(self):
        R = resolvent(identity_operator("x", ENV), 2)
        assert fval(eval_op(R, 6).lo) == 2  # y/(1+2)

    def test_negative_lambda(self):
        with pytest.raises(NegativeScalar):
            resolvent(identity_operator("x", ENV), -1)

    def test_prox_soft_threshold(self):
        R = prox(parse_pwf("abs(x)", ENV), 1)
        assert fval(eval_op(R, 3).lo) == 2
        assert fval(eval_op(R, Fraction(1, 2)).lo) == 0
        assert fval(eval_op(R, -3).lo) == -2

    def test_prox_projection(self):
        f = parse_pwf("pw{ x < -1 -> inf ; -1 <= x & x <= 2 -> 0 ; x > 2 -> inf }", ENV)
        R = prox(f, 1)
        assert fval(eval_op(R, -5).lo) == -1
        assert fval(eval_op(R, 1).lo) == 1
        assert fval(eval_op(R, 7).lo) == 2

    def test_parametric_soft_threshold_branches(self):
        env = AssumptionEnv.parse(["0 < l"])
        R = prox(parse_pwf("abs(x)", env), "l")
        regular = [p for p in R.pieces if not p.empty]
        assert len(regular) == 3
        texts = [to_text(p.body, R.varname) for p in regular]
        assert texts == ["y + l", "0", "y - l"]
        assert [to_text(b, R.varname) for b in R.breakpoints] == ["-l", "l"]


class TestMaximalExtension:
    def test_point_graph_extends_to_vertical_ray(self):
        T = parse_operator("sd{ x < 0 -> empty ; x = 0 -> {0} ; x > 0 -> empty }", ENV)
        M = maximal_extension(T)
        assert eval_op(M, 0).tag == "all"

    def test_hard_threshold_fills_jumps(self):
        T = parse_operator(HARD_THRESHOLD, ENV)
        M = maximal_extension(T)
        v = eval_op(M, -1)
        assert v.tag == "interval" and fval(v.lo) == -1 and fval(v.hi) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyOperator):
            maximal_extension(parse_operator("sd{ x < 0 -> empty ; x = 0 -> empty ; x > 0 -> empty }", ENV))
