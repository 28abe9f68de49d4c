"""Piecewise function layer: DSL, validation, evaluation, domain."""

import math
from fractions import Fraction

import pytest

from pwconvex import (
    AssumptionEnv,
    build_function,
    conjugate,
    domain,
    eval_op,
    eval_pwf,
    function_to_json,
    parse_pwf,
    render_function,
    render_operator,
    subdifferential,
)
from pwconvex.errors import (
    DiscontinuousOnDomain,
    GapInGuards,
    NonConvex,
    NotLsc,
    OverlappingGuards,
    ParseError,
    UndecidableComparison,
)
from pwconvex.expr import parse_expr, to_text

ENV = AssumptionEnv.empty()


class TestParsing:
    def test_bare_expression_covers_line(self):
        f = parse_pwf("x^2/2", ENV)
        assert len(f.breakpoints) == 0
        assert eval_pwf(f, 4) == 8

    def test_full_dsl(self):
        f = parse_pwf("pw{ x < -1 -> inf ; -1 <= x & x <= 2 -> 0 ; x > 2 -> inf }", ENV)
        assert [to_text(b) for b in f.breakpoints] == ["-1", "2"]
        assert eval_pwf(f, 0) == 0
        assert eval_pwf(f, 3) == math.inf
        assert eval_pwf(f, -1) == 0

    def test_uncovered_point_filled_by_continuity(self):
        f = parse_pwf("pw{ x < 0 -> 0 ; x > 0 -> x }", ENV)
        assert eval_pwf(f, 0) == 0

    def test_point_guard_sets_value(self):
        f = parse_pwf("pw{ x < 0 -> inf ; x = 0 -> 0 ; x > 0 -> inf }", ENV)
        assert eval_pwf(f, 0) == 0
        assert eval_pwf(f, Fraction(1, 10**9)) == math.inf

    def test_variable_detected(self):
        f = parse_pwf("abs(y)", ENV)
        assert f.varname == "y"

    def test_two_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_pwf("x + y", ENV)

    def test_exact_rational_breakpoints(self):
        f = parse_pwf("pw{ x < 1/3 -> -x + 1/3 ; x >= 1/3 -> x - 1/3 }", ENV)
        assert f.breakpoints[0] == parse_expr("1/3")
        assert eval_pwf(f, Fraction(1, 3)) == 0


class TestValidation:
    def test_gap(self):
        with pytest.raises(GapInGuards):
            parse_pwf("pw{ x < 0 -> 0 ; x > 1 -> x }", ENV)

    def test_overlap(self):
        with pytest.raises(OverlappingGuards):
            parse_pwf("pw{ x <= 0 -> 0 ; x >= 0 -> x }", ENV)

    def test_jump_without_value(self):
        with pytest.raises(DiscontinuousOnDomain):
            parse_pwf("pw{ x < 0 -> 0 ; x > 0 -> 1 }", ENV)

    def test_discontinuity(self):
        with pytest.raises(DiscontinuousOnDomain):
            parse_pwf("pw{ x < 0 -> -x ; x >= 0 -> x - 1 }", ENV)

    def test_not_lsc(self):
        with pytest.raises(NotLsc):
            parse_pwf("pw{ x < 0 -> -x ; x = 0 -> 1 ; x > 0 -> x }", ENV)

    def test_concave_piece(self):
        with pytest.raises(NonConvex):
            parse_pwf("pw{ x < 0 -> -x^2 ; x >= 0 -> x }", ENV)

    def test_concave_piece_at_the_sampling_window_edge(self):
        # a cell that starts at the window edge is sampled on a strip inside it
        with pytest.raises(NonConvex):
            parse_pwf("pw{ x < 30 -> inf ; x >= 30 -> ln(x) }", ENV)

    def test_slope_decrease_across_pieces(self):
        with pytest.raises(NonConvex) as exc:
            parse_pwf("pw{ x < 0 -> x ; x >= 0 -> 0 }", ENV)
        assert exc.value.witness == ("-1", "0", "1")

    def test_parametric_witness(self):
        env = AssumptionEnv.parse(["0 < a"])
        with pytest.raises(NonConvex) as exc:
            parse_pwf("pw{ x < a -> x - a ; x >= a -> 0 }", env)
        assert exc.value.witness[1] == "a"

    def test_weakly_convex_container_accepts(self):
        # -(1 - |x|)^2/2 on [-1, 1]: continuous, not convex
        f = build_function(
            "x",
            [parse_expr("-1"), parse_expr("0"), parse_expr("1")],
            [None, parse_expr("-1/2 - x - x^2/2"), parse_expr("-1/2 + x - x^2/2"), None],
            [parse_expr("0"), parse_expr("-1/2"), parse_expr("0")],
            ENV,
            weakly_convex=True,
        )
        assert eval_pwf(f, 0) == Fraction(-1, 2)
        # parsing certifies each piece; the builder certifies nothing
        with pytest.raises(NonConvex):
            parse_pwf("pw{ x < -1 -> inf ; -1 <= x & x < 0 -> -1/2 - x - x^2/2 ;"
                      " 0 <= x & x <= 1 -> -1/2 + x - x^2/2 ; x > 1 -> inf }", ENV)

    def test_a_sampled_witness_is_an_ordered_triple(self):
        # -exp is not convex; the sampled tier names (a, m, b) with m the
        # midpoint, where f(m) lies above the chord
        with pytest.raises(NonConvex) as exc:
            parse_pwf("pw{ y < 0 -> inf ; y >= 0 -> 0 - exp(y) }", ENV)
        a, m, b = exc.value.witness
        f = lambda t: -math.exp(t)  # noqa: E731
        assert a < m < b and f(m) > (f(a) + f(b)) / 2

    def test_a_slope_that_wobbles_in_its_last_ulps_is_convex(self):
        # ROADMAP 2n: the slope of ln(2 cosh x) is -1 + O(1e-25) near
        # x = -29, where its samples differ in the last ulp: ties, as in
        # the monotonicity certificate, not falls
        f = parse_pwf("ln(exp(x) + exp(0 - x))", ENV)
        assert function_to_json(f)["pieces"][0]["kind"] == "strictly-convex"


class TestParametric:
    def test_parametric_indicator(self):
        env = AssumptionEnv.parse(["0 < a"])
        f = parse_pwf("pw{ x < a -> inf ; x >= a -> x - a }", env)
        assert eval_pwf(f, 5, params={"a": 2}) == 3
        assert eval_pwf(f, 1, params={"a": 2}) == math.inf

    def test_undecidable_location(self):
        env = AssumptionEnv.parse(["0 < a"])
        f = parse_pwf("pw{ x < a -> inf ; x >= a -> x - a }", env)
        with pytest.raises(UndecidableComparison):
            eval_pwf(f, 5)  # 5 vs a is not decided by 0 < a


class TestEvalAndDomain:
    def test_exact_values(self):
        f = parse_pwf("x^2/2", ENV)
        v = eval_pwf(f, Fraction(1, 3))
        assert isinstance(v, Fraction) and v == Fraction(1, 18)

    def test_domain_full_line(self):
        d = domain(parse_pwf("abs(x)", ENV))
        assert d.lo == -math.inf and d.hi == math.inf

    def test_domain_box(self):
        d = domain(parse_pwf("pw{ x < -1 -> inf ; -1 <= x & x <= 2 -> 0 ; x > 2 -> inf }", ENV))
        assert to_text(d.lo) == "-1" and to_text(d.hi) == "2"

    def test_domain_half_line(self):
        d = domain(parse_pwf("pw{ x <= 0 -> inf ; x > 0 -> -ln(x) }", ENV))
        assert to_text(d.lo) == "0" and d.hi == math.inf

    def test_log_barrier_values(self):
        f = parse_pwf("pw{ x <= 0 -> inf ; x > 0 -> -ln(x) }", ENV)
        assert eval_pwf(f, 1) == 0
        assert eval_pwf(f, 0) == math.inf
        assert math.isclose(float(eval_pwf(f, 2.0)), -math.log(2.0))


class TestClosedEndWithoutValue:
    """A closed end where the body has no value (ln(0)) takes the
    one-sided limit from inside its cell."""

    @pytest.mark.parametrize("closed, reference", [
        ("pw{ x < 0 -> inf ; x >= 0 -> x*ln(x) - x }", "pw{ x < 0 -> inf ; x = 0 -> 0 ; x > 0 -> x*ln(x) - x }"),
        ("pw{ x < 0 -> inf ; x >= 0 -> 0 - ln(x) }", "pw{ x < 0 -> inf ; x > 0 -> 0 - ln(x) }"),
    ])
    def test_same_as_the_explicit_form(self, closed, reference):
        f, ref = parse_pwf(closed, ENV), parse_pwf(reference, ENV)
        assert eval_pwf(f, 0) == eval_pwf(ref, 0)
        assert render_operator(subdifferential(f)) == render_operator(subdifferential(ref))
        assert render_function(conjugate(f)) == render_function(conjugate(ref))

    def test_entropy(self):
        f = parse_pwf("pw{ x < 0 -> inf ; x >= 0 -> x*ln(x) - x }", ENV)
        assert eval_pwf(f, 0) == 0
        assert eval_op(subdifferential(f), 0).tag == "empty"
        assert render_function(conjugate(f)) == render_function(parse_pwf("exp(y)", ENV))
