"""Expression AST: parsing, evaluation, calculus, formatting."""

import math
from fractions import Fraction

import pytest

from pwconvex.assumptions import AssumptionEnv
from pwconvex.conv import antiderivative
from pwconvex.errors import DomainError, ParseError, UnboundParameter
from pwconvex import grid_conjugate, parse_pwf
from pwconvex.expr import (
    MAX_PARSE_DEPTH,
    Const,
    ImplicitInverse,
    NumericIntegral,
    X,
    as_expr,
    children,
    differentiate,
    eval_array,
    evaluate,
    format_number,
    map_children,
    param_names,
    parse_expr,
    pow_sign,
    substitute,
    to_text,
)
from pwconvex.simplify import is_zero, simplify


def ev(text, x=None, **params):
    return evaluate(parse_expr(text), x=x, params={k: Fraction(v) for k, v in params.items()} or None)


class TestParse:
    def test_precedence(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20
        assert ev("2 * x ^ 2", x=3) == 18
        assert ev("-x^2", x=2) == -4  # unary minus binds looser than ^

    def test_rationals_exact(self):
        v = ev("1/3 + 1/6")
        assert isinstance(v, Fraction) and v == Fraction(1, 2)

    def test_decimal_literal_is_exact(self):
        assert ev("0.1 + 0.2") == Fraction(3, 10)

    def test_functions(self):
        assert ev("abs(-3)") == 3
        assert ev("exp(0)") == 1
        assert ev("ln(1)") == 0
        assert math.isclose(float(ev("exp(ln(5))")), 5.0)

    def test_fractional_exponent(self):
        assert ev("x^(1/2)", x=4) == 2
        assert ev("x^(3/2)", x=4) == 8

    def test_odd_root_of_negative(self):
        assert ev("x^(1/3)", x=-8) == -2

    def test_params(self):
        assert ev("a*x + b", x=2, a=3, b=1) == 7

    def test_unbound_param(self):
        with pytest.raises(UnboundParameter):
            evaluate(parse_expr("a + 1"))

    def test_syntax_errors(self):
        for bad in ("2 +", "(1", "x y", "1..2", "^2"):
            with pytest.raises(ParseError):
                parse_expr(bad)

    def test_parse_round_trip(self):
        for text in ("x^2/2", "abs(x - 1)", "exp(-x) + ln(x)", "3*x - 4", "x^(5/3)"):
            e = parse_expr(text)
            again = parse_expr(to_text(e))
            assert is_zero(simplify(e - again))


class TestEvaluate:
    def test_ln_domain(self):
        with pytest.raises(DomainError):
            ev("ln(x)", x=-1)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/x", x=0)

    def test_even_root_of_negative(self):
        with pytest.raises(DomainError):
            ev("x^(1/2)", x=-1)

    @pytest.mark.parametrize("q, sign", [("1/3", -1), ("2/3", 1), ("-5/3", -1), ("1/2", None), ("3", -1)])
    def test_real_root_rule(self, q, sign):
        # x^(p/q) for x < 0: no real value for even q, else the sign (-1)^p
        e = parse_expr(f"(0 - 2)^({q})")
        assert pow_sign(-1, Fraction(q)) == sign
        assert AssumptionEnv.empty().sign_of(e) == sign
        if sign is None:
            with pytest.raises(DomainError):
                evaluate(e)
            return
        assert math.copysign(1, evaluate(e)) == sign
        assert math.copysign(1, eval_array(parse_expr(f"x^({q})"), [-2.0])[0]) == sign
        assert math.copysign(1, evaluate(simplify(parse_expr(f"(0 - 8)^({q})")))) == sign

    def test_substitute_expr(self):
        e = parse_expr("x^2 + 1")
        out = simplify(substitute(e, var=parse_expr("x + 1")))
        assert evaluate(out, x=Fraction(2)) == 10


class TestNumericNodes:
    """ImplicitInverse bounds are children: walks, rewrites and parameter
    substitution all see them."""

    NODE = ImplicitInverse(parse_expr("x^3 + x"), parse_expr("l + 1"), math.inf)

    def test_param_names_sees_a_bound(self):
        assert param_names(self.NODE) == {"l"}
        assert self.NODE.lo in children(self.NODE)

    def test_map_children_rebuilds_every_child(self):
        out = map_children(self.NODE, lambda c: substitute(c, params={"l": 2}))
        assert evaluate(out.lo) == 3
        assert out.hi == math.inf and out.increasing

    def test_substitute_keeps_the_implicit_argument(self):
        # the forward map and the integrand are in their own variable
        q = NumericIntegral(parse_expr("x^2"), parse_expr("l"))
        out = substitute(q, var=parse_expr("5"), params={"l": 1})
        assert out == NumericIntegral(parse_expr("x^2"), as_expr(1))
        assert evaluate(out, x=2) == pytest.approx(7 / 3)


class TestEvalArray:
    def test_even_numerator_root_of_negative(self):
        # x^(p/q) = sign(x)^p * |x|^(p/q): even p gives a positive value
        assert eval_array(parse_expr("x^(2/3)"), [-8.0, 8.0]).tolist() == pytest.approx([4.0, 4.0])
        assert eval_array(parse_expr("x^(1/3)"), [-8.0]).tolist() == pytest.approx([-2.0])
        assert eval_array(parse_expr("x^(-2/3)"), [-8.0]).tolist() == pytest.approx([0.25])

    def test_grid_conjugate_of_even_root_power(self):
        # (|x|^(4/3))*(y) = max over x of y x - |x|^(4/3) = 27/256 at y = +-1
        f = parse_pwf("abs(x)^(4/3)")
        for y in (-1, 1):
            assert grid_conjugate(f, y) == pytest.approx(27 / 256, abs=1e-6)


class TestParseDepth:
    def test_depth_limit_is_inclusive(self):
        assert parse_expr(" + ".join(["x"] * MAX_PARSE_DEPTH)) is not None
        with pytest.raises(ParseError):
            parse_expr(" + ".join(["x"] * (MAX_PARSE_DEPTH + 1)))

    def test_nested_factors_are_bounded(self):
        assert parse_expr("(" * (MAX_PARSE_DEPTH - 1) + "x" + ")" * (MAX_PARSE_DEPTH - 1)) is not None
        with pytest.raises(ParseError):
            parse_expr("(" * MAX_PARSE_DEPTH + "x" + ")" * MAX_PARSE_DEPTH)
        with pytest.raises(ParseError):
            parse_expr("-" * MAX_PARSE_DEPTH + "x")

    def test_guards_and_bodies_are_checked(self):
        deep = "+".join(["x"] * (MAX_PARSE_DEPTH + 1))
        for text in (deep, f"pw{{ x < 0 -> {deep} ; x >= 0 -> x }}", f"pw{{ {deep} < 0 -> x ; x >= 0 -> x }}"):
            with pytest.raises(ParseError):
                parse_pwf(text)


class TestConstIdentity:
    """A float constant and an equal Fraction are distinct nodes.

    Shared caches would otherwise let an approximate fold leak into an
    exact pipeline (or the reverse).
    """

    def test_nodes_distinct(self):
        assert Const(Fraction(1, 2)) != Const(0.5)
        assert hash(Const(Fraction(1, 2))) != hash(Const(0.5))
        assert Const(Fraction(1, 2)) == Const(Fraction(1, 2))

    def test_float_fold_does_not_leak(self):
        exact = simplify(parse_expr("ln(1 - x)"))
        # float traffic through the same shape
        simplify(substitute(exact, var=as_expr(0.5)))
        kept = simplify(substitute(exact, var=as_expr(Fraction(1, 2))))
        assert "ln" in to_text(kept)


class TestCalculus:
    def test_derivatives(self):
        cases = {
            "x^3": "3*x^2",
            "exp(2*x)": "2*exp(2*x)",
            "ln(x)": "1/x",
            "x*exp(x)": "exp(x) + x*exp(x)",
        }
        for src, want in cases.items():
            d = simplify(differentiate(parse_expr(src)))
            assert is_zero(simplify(d - parse_expr(want))), (src, to_text(d))

    def test_antiderivative_inverts_derivative(self):
        env = AssumptionEnv.empty()
        for text in ("x^2", "exp(3*x)", "1/x", "2*x + 5"):
            e = parse_expr(text)
            back = simplify(differentiate(antiderivative(e, env, 1, 2)))
            assert is_zero(simplify(back - simplify(e))), text

    def test_antiderivative_rejects_hard_cases(self):
        assert antiderivative(parse_expr("exp(x^2)"), AssumptionEnv.empty(), 0, 1) is None


class TestFormatNumber:
    def test_rational(self):
        assert format_number(Fraction(1, 3)) == "1/3"
        assert format_number(Fraction(4, 2)) == "2"
        assert format_number(Fraction(-7, 4)) == "-7/4"

    def test_infinities(self):
        assert format_number(math.inf) == "inf"
        assert format_number(-math.inf) == "-inf"

    def test_float_17_digits(self):
        s = format_number(0.1)
        assert float(s) == 0.1

    def test_to_text_var(self):
        assert to_text(X + 1, "y") == "y + 1"
