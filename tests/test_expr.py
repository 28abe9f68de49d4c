"""Expression AST: parsing, evaluation, calculus, formatting."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bisect_root
from pwconvex import expr
from pwconvex.assumptions import AssumptionEnv
from pwconvex.conv import _inverse_primitive, antiderivative
from pwconvex.errors import DomainError, MaxIterations, ParseError, UnboundParameter
from pwconvex import parse_pwf
from pwconvex.expr import (
    BISECT_REL_TOL,
    MAX_PARSE_DEPTH,
    QUAD_MAX_SPLITS,
    ZERO,
    Abs,
    Add,
    Const,
    Div,
    Exp,
    ImplicitInverse,
    Ln,
    Mul,
    Neg,
    NumericIntegral,
    Param,
    Pow,
    Sub,
    X,
    _composite,
    _eval_integral,
    _eval_quadrature,
    _integral_form,
    as_expr,
    children,
    differentiate,
    evaluate,
    float_kernel,
    format_number,
    map_children,
    param_names,
    parse_expr,
    pow_sign,
    substitute,
    to_text,
    walk,
)
from pwconvex.simplify import (
    _cancel_rational,
    _iroot,
    _poly_divide_exact,
    _snf,
    affine_parts,
    is_zero,
    poly_coeffs,
    simplify,
)


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
        assert math.copysign(1, float_kernel(parse_expr(f"x^({q})"))(-2.0)) == sign
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


    def test_quadrature_halves_a_panel_it_does_not_resolve(self):
        # the inverse of h(t) = 10t^3 + t/2 - 1/2 has branch points 0.04 off
        # the real line near -1/2, where one 64-node panel errs by 2e-9; the
        # integral of h^-1 from 0 to s is [r*h^-1(r) - H(h^-1(r))] with H' = h
        inv = ImplicitInverse(parse_expr("10*x^3 + x/2 - 1/2"), -math.inf, math.inf)

        def primitive(r):
            u = evaluate(inv, r)
            return r * u - (5 / 2 * u**4 + u**2 / 4 - u / 2)

        for s in (-1.875, -0.6, 2.5):
            exact = primitive(s) - primitive(0.0)
            assert evaluate(NumericIntegral(inv, ZERO), s) == pytest.approx(exact, rel=1e-13, abs=1e-13)

    def test_the_primitive_is_a_child(self):
        # it is in the forward's variable, like the integrand: rewrites and
        # parameter substitution reach it, substitution of the variable not
        q = NumericIntegral(self.NODE, ZERO, parse_expr("x^4/4 + x^2/2 + l"))
        assert children(q)[2] is q.primitive and param_names(q) == {"l"}
        out = substitute(q, var=parse_expr("5"), params={"l": 2})
        assert out.primitive == parse_expr("x^4/4 + x^2/2 + 2")
        assert simplify(q).primitive is not None
        assert to_text(q) == to_text(NumericIntegral(self.NODE, ZERO))

    def test_quadrature_gives_a_python_float(self):
        q = NumericIntegral(parse_expr("exp(0 - x^2)"), ZERO)
        assert type(evaluate(q, 1.0)) is float
        assert evaluate(q, 1.0) == pytest.approx(0.746824132812427)


COEFFS = st.builds(Fraction, st.integers(1, 40), st.sampled_from([4, 10]))


def q(v: Fraction) -> str:
    return f"({v.numerator}/{v.denominator})"


@st.composite
def monotone_maps(draw):
    """(forward text, the same map as a Python float function, lo, a point
    t0 in (lo, inf)) of a strictly increasing map on (lo, inf)."""
    kind = draw(st.sampled_from(["odd_polynomial", "exp", "log"]))
    c = [draw(COEFFS) for _ in range(3)]
    f0, f1, f2 = map(float, c)
    if kind == "odd_polynomial":
        return (f"{q(c[0])}*x + {q(c[1])}*x^3 + {q(c[2])}*x^5", lambda t: f0 * t + f1 * t**3 + f2 * t**5,
                -math.inf, draw(st.floats(-4, 4)))
    if kind == "exp":
        return f"exp({q(c[0])}*x) + {q(c[1])}*x", lambda t: math.exp(f0 * t) + f1 * t, -math.inf, draw(st.floats(-20, 5))
    return f"x + {q(c[0])}*ln(x)", lambda t: t + f0 * math.log(t), 0.0, draw(st.floats(1e-8, 50))


class TestSolver:
    """The Newton solver of ImplicitInverse against plain bisection."""

    @settings(max_examples=200, deadline=None)
    @given(monotone_maps(), st.booleans())
    def test_solver_agrees_with_bisection(self, example, increasing):
        text, fn, lo, t0 = example
        target = fn(t0)
        # the oracle brackets the crossing by t0's neighbours; f is strictly increasing
        root = bisect_root(fn, target, t0 / 2 if lo == 0.0 else t0 - 1.0, t0 + 1.0)
        sign = 1.0 if increasing else -1.0
        forward = parse_expr(text if increasing else f"0 - ({text})")
        got = evaluate(ImplicitInverse(forward, lo, math.inf, increasing), sign * target)
        assert abs(got - root) <= 2 * BISECT_REL_TOL * max(1.0, abs(root))
        # the forward straddles the target one tolerance either side of the result
        tol = BISECT_REL_TOL * max(1.0, abs(got))
        if got - tol > lo:
            assert fn(got - tol) <= target
        assert fn(got + tol) >= target


@st.composite
def inverse_integrals(draw):
    """(NumericIntegral of g^-1 with the primitive G of g, binding, base,
    point): g a polynomial with positive coefficients, one of them the
    parameter a, increasing on the whole line (odd) or on a bounded
    (0, h), or the decreasing mirror of either; base and point in its
    range."""
    c = [draw(st.builds(Fraction, st.integers(1, 16), st.just(4))) for _ in range(3)]
    a = draw(st.sampled_from([Fraction, float]))(draw(st.builds(Fraction, st.integers(1, 16), st.just(4))))
    if draw(st.booleans()):
        lo, hi, powers = -math.inf, math.inf, (1, 3, 5)
        ts = st.floats(-1.5, 1.5)
    else:
        h = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(2)]))
        lo, hi, powers = ZERO, as_expr(h), (1, 2, 3)
        ts = st.floats(0.0, float(h))
    sign = draw(st.sampled_from([1, -1]))
    g = " + ".join(f"{q(sign * ci)}*x^{k}" for ci, k in zip(c, powers)) + f" + {sign}*a*x"
    G = " + ".join(f"{q(sign * ci / (k + 1))}*x^{k + 1}" for ci, k in zip(c, powers)) + f" + {sign}*a*x^2/2"

    def forward(t):
        return sign * (sum(float(ci) * t**k for ci, k in zip(c, powers)) + float(a) * t)

    base = forward(draw(ts))
    node = NumericIntegral(ImplicitInverse(parse_expr(g), lo, hi, sign > 0), as_expr(base), parse_expr(G))
    return node, {"a": a}, base, forward(draw(ts))


@st.composite
def transcendental_inverse_integrals(draw):
    """(NumericIntegral of g^-1 with the primitive G of g that conv
    builds, binding, base, point): g is exp(a*t) + b*t with the parameter
    a > 0, t + c*ln(t) on (0, inf), or t - c*ln(-t) or t - c/t on
    (-inf, 0), where G must hold ln(-t) in place of the ln(t) of the
    plain antiderivative to have a value; base and point in its range."""
    b, c = (draw(COEFFS) for _ in range(2))
    a = draw(st.sampled_from([Fraction, float]))(draw(COEFFS))
    kind = draw(st.sampled_from(["exp", "log", "mirrored_log", "reciprocal"]))
    if kind == "exp":
        text, lo, hi, ts = f"exp(a*x) + {q(b)}*x", -math.inf, math.inf, st.floats(-3.0, 2.0)
    elif kind == "log":
        text, lo, hi, ts = f"x + {q(c)}*ln(x)", 0.0, math.inf, st.floats(0.05, 5.0)
    else:
        term = "ln(0 - x)" if kind == "mirrored_log" else "1/x"
        text, lo, hi, ts = f"x - {q(c)}*{term}", -math.inf, 0.0, st.floats(-5.0, -0.05)
    inverse = ImplicitInverse(parse_expr(text), lo, hi)
    primitive = _inverse_primitive(inverse, AssumptionEnv.parse(["0 < a"]))
    params = {"a": a}

    def forward(t):
        return float(evaluate(inverse.forward, t, params))

    base = forward(draw(ts))
    return NumericIntegral(inverse, as_expr(base), primitive), params, base, forward(draw(ts))


# g(t) = exp(27/4*t) + t/4 from g(2) to g(-1): the plain quadrature of
# g^-1 over this range is off by 1e-11 relative
WIDE_EXP = ImplicitInverse(parse_expr("exp(a*x) + (1/4)*x"), -math.inf, math.inf)
WIDE_EXP_INTEGRAL = (
    NumericIntegral(WIDE_EXP, as_expr(729416.8698477013),
                    _inverse_primitive(WIDE_EXP, AssumptionEnv.parse(["0 < a"]))),
    {"a": Fraction(27, 4)}, 729416.8698477013, -0.24882912037920882,
)


class TestInverseIntegral:
    """The closed form of an integral of an implicit inverse."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(inverse_integrals(), transcendental_inverse_integrals()))
    @example(WIDE_EXP_INTEGRAL)
    def test_closed_form_is_the_quadrature(self, case):
        node, params, base, y = case
        form = _integral_form(node, params)
        assert form is not None
        got = _eval_integral(node, base, y, params, form)
        # the reference integrates t*g'(t) over [g^-1(base), g^-1(y)]
        # (s = g(t)): smooth where g^-1 is steep, and free of the primitive
        inverse = node.integrand
        t0, t1 = (evaluate(inverse, s, params) for s in (base, y))
        integrand = float_kernel(Mul(X, differentiate(inverse.forward)), params)
        want = _composite(integrand, t0, t1, max(1, min(64, int(abs(t1 - t0)) + 1)), QUAD_MAX_SPLITS)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_one_solve_per_kernel_value(self, monkeypatch):
        node = NumericIntegral(ImplicitInverse(parse_expr("3*x + 4*x^3"), -math.inf, math.inf), ZERO,
                               parse_expr("3*x^2/2 + x^4"))
        kernel = float_kernel(node)
        first = kernel(0.5)
        calls = []
        solve = expr._eval_implicit
        monkeypatch.setattr(expr, "_eval_implicit", lambda *args: calls.append(args) or solve(*args))
        for y in (0.5, -2.0, 7.0):
            kernel(y)
        assert len(calls) == 3
        assert evaluate(node, 0.5) == first and len(calls) == 4

    def test_quadrature_where_the_closed_form_has_no_value(self):
        # G has no value where the inverse is negative: at the base -1 there
        # is no closed form, from the base 1 it has none at the point -1
        inverse = ImplicitInverse(parse_expr("x^3 + x"), -math.inf, math.inf)
        assert _integral_form(NumericIntegral(inverse, ZERO), None) is None
        primitive = parse_expr("x^4/4 + x^2/2 + ln(x)")
        for base, y in ((-1.0, 3.0), (1.0, -1.0)):
            node = NumericIntegral(inverse, as_expr(base), primitive)
            assert (_integral_form(node, None) is None) == (base < 0)
            assert evaluate(node, y) == float_kernel(node)(y) == _eval_quadrature(inverse, base, y, None)


# expressions of every node kind the grammar admits, with float constants
# as the pipelines build them, and up to two parameters
EXPONENTS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
LEAVES = st.one_of(
    st.just(X),
    st.builds(Const, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))),
    st.builds(Const, st.floats(-4, 4)),
    st.sampled_from([Param("a"), Param("b")]),
)
EXPRS = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Abs, sub), st.builds(Exp, sub), st.builds(Ln, sub),
        st.builds(Add, sub, sub), st.builds(Sub, sub, sub), st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub), st.builds(Pow, sub, EXPONENTS),
    ),
    max_leaves=10,
)
POINTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-6, 6),
                   st.floats(allow_nan=False, allow_infinity=False))
BINDINGS = st.dictionaries(
    st.sampled_from(["a", "b"]), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)), max_size=2
)


def outcome(fn) -> str:
    """repr of the float fn returns (the sign of zero counts), or the
    class of the exception it raises."""
    try:
        return repr(float(fn()))
    except Exception as exc:  # the class is the outcome under test
        return type(exc).__name__


class TestFloatKernel:
    """The compiled kernel equals the tree walk bit for bit, errors included."""

    @settings(max_examples=300, deadline=None)
    @given(EXPRS, POINTS, BINDINGS)
    def test_kernel_is_the_walk(self, e, x, params):
        walk = outcome(lambda: evaluate(e, x, params))
        assert outcome(lambda: float_kernel(e, params)(x)) == walk

    @pytest.mark.parametrize("text, x", [("exp(x - 1)", 1.0), ("-ln(x)", 1.0), ("exp(x)/10 + 2/10", 0.0)])
    def test_exact_exp_and_ln(self, text, x):
        # the walk keeps exp(0) = 1 and ln(1) = 0 exact: -ln(1) is 0.0, not -0.0
        e = parse_expr(text)
        assert repr(float_kernel(e)(x)) == repr(float(evaluate(e, x)))

    def test_divisor_is_read_first(self):
        # 10^400 overflows, but the walk stops at the zero divisor before it
        e = parse_expr("x^400/(x - x)")
        with pytest.raises(DomainError):
            float_kernel(e)(10.0)

    def test_divisor_that_rounds_to_zero(self):
        # (1/10)^400 is a nonzero divisor to the walk and 0.0 as a float
        e = parse_expr("x/(1/10)^400")
        assert outcome(lambda: float_kernel(e)(1.0)) == outcome(lambda: evaluate(e, 1.0))

    def test_folded_subtree_that_raises(self):
        e = parse_expr("x + ln(0 - 1)")
        with pytest.raises(DomainError):
            float_kernel(e)(2.0)
        # as the forward map of a bisection every value is a domain error
        with pytest.raises(MaxIterations, match="from below"):
            evaluate(ImplicitInverse(e, -math.inf, math.inf), 0.0)

    def test_even_numerator_root_of_negative(self):
        # x^(p/q) = sign(x)^p * |x|^(p/q): even p gives a positive value
        assert [float_kernel(parse_expr("x^(2/3)"))(x) for x in (-8.0, 8.0)] == pytest.approx([4.0, 4.0])
        assert float_kernel(parse_expr("x^(1/3)"))(-8.0) == pytest.approx(-2.0)
        assert float_kernel(parse_expr("x^(-2/3)"))(-8.0) == pytest.approx(0.25)

    def test_bindings_do_not_share_values(self):
        # Fraction(1, 2) and 0.5 hash alike; each binding reads its own
        for e in (parse_expr("a*x"), parse_expr("(a + 1/10)*x")):
            for a in (Fraction(1, 2), 0.5, Fraction(1, 5), 0.2):
                assert repr(float_kernel(e, {"a": a})(3.0)) == repr(float(evaluate(e, 3.0, {"a": a})))
        # equal trees share a template but not their constants: 0.0 == -0.0
        for c in (0.0, -0.0):
            e = Mul(Const(c), X)
            assert repr(float_kernel(e)(1.0)) == repr(c)

    CUBIC = ImplicitInverse(parse_expr("x^3 + a*x"), -math.inf, math.inf)
    NUMERIC = (
        CUBIC,
        Add(Mul(X, CUBIC), parse_expr("a/3")),
        ImplicitInverse(parse_expr("x + a*ln(x)"), 0.0, math.inf),
        ImplicitInverse(parse_expr("0 - exp(a*x)"), -math.inf, math.inf, False),
        NumericIntegral(CUBIC, ZERO),
        NumericIntegral(ImplicitInverse(parse_expr("x + exp(x)"), -math.inf, math.inf), parse_expr("a - 1")),
        NumericIntegral(CUBIC, parse_expr("a"), parse_expr("x^4/4 + a*x^2/2")),
    )

    @pytest.mark.parametrize("e", NUMERIC, ids=to_text)
    @pytest.mark.parametrize("a", [Fraction(1, 2), 0.5, Fraction(3), 0.0, -0.0, Fraction(-1)])
    def test_numeric_nodes_are_the_walk(self, e, a):
        for x in (-2.5, -0.0, 0.0, 0.5, 3.0):
            walk = outcome(lambda: evaluate(e, x, {"a": a}))
            assert outcome(lambda: float_kernel(e, {"a": a})(x)) == walk

    def test_equal_bindings_of_two_types_keep_their_solvers(self):
        # the bound is 0 for a = 1/2 and 2775.5... for a = 0.5, where
        # a/10 + a/5 rounds up; the inverse of x^3 + x at 1 is the root
        # 0.68 on (0, inf) and the end on (2775.5..., inf)
        lo = parse_expr("100000000000000000000*(a/10 + a/5 - 3*a/10)")
        node = ImplicitInverse(parse_expr("x^3 + x"), lo, math.inf)
        expected = {Fraction: pytest.approx(0.6823278038280193), float: pytest.approx(2775.5575615628914)}
        for order in ((Fraction(1, 2), 0.5), (0.5, Fraction(1, 2))):
            for a in order:
                for e in (node, NumericIntegral(node, ZERO)):
                    walk = outcome(lambda: evaluate(e, 1.0, {"a": a}))
                    assert outcome(lambda: float_kernel(e, {"a": a})(1.0)) == walk
                assert float(evaluate(node, 1.0, {"a": a})) == expected[type(a)]

    def test_a_bound_that_raises_under_one_binding(self):
        # ln(a) has no value at a = 0: every solve raises, under the walk
        # and under a kernel, before and after a binding where it has one
        node = ImplicitInverse(parse_expr("x + exp(x)"), parse_expr("ln(a)"), math.inf)
        for a in (Fraction(0), Fraction(1), 0.0, 1.0, Fraction(0)):
            for e in (node, NumericIntegral(node, ZERO), Add(X, node)):
                kernel = float_kernel(e, {"a": a})
                walk = outcome(lambda: evaluate(e, 2.0, {"a": a}))
                assert outcome(lambda: kernel(2.0)) == walk
                assert (walk == "DomainError") == (a == 0)

    def test_walk_solves_do_not_hash_the_tree(self, monkeypatch):
        # the node keeps its hash, so a solve reads no node below it
        node = ImplicitInverse(parse_expr("x^3 + x"), -math.inf, math.inf)
        assert evaluate(node, 2.0) == 1.0
        monkeypatch.setattr(type(node.forward), "__hash__", lambda self: pytest.fail("hashed"))
        assert evaluate(node, 2.0) == 1.0

    def test_an_equal_copy_shares_the_solver(self):
        # a substitution rebuilds the tree: the copy finds the solver by value
        node = ImplicitInverse(parse_expr("x^3 + x"), -math.inf, math.inf)
        copy = substitute(node, params={"a": 1})
        assert copy is not node and expr._solver(copy, None) is expr._solver(node, None)


# polynomials in x with powers of powers of x mixed in: (x^2)^(1/2) is
# |x|, not x.  Points and constants are dyadic and degrees small, so
# the float square roots the walk takes of the nested powers are exact.
NESTED = st.sampled_from(["(x^2)^(1/2)", "(x^4)^(1/2)", "(x^2)^(3/2)"]).map(parse_expr)
DYADIC = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 4]))
POLY_BODIES = st.recursive(
    st.one_of(st.just(X), NESTED, st.builds(Const, DYADIC)),
    lambda sub: st.one_of(st.builds(Add, sub, sub), st.builds(Sub, sub, sub), st.builds(Mul, sub, sub)),
    max_leaves=5,
)


class TestPolynomialReader:
    @settings(max_examples=200, deadline=None)
    @given(POLY_BODIES, st.sampled_from([Fraction(-3), Fraction(-3, 2), Fraction(-1, 2)]),
           st.sampled_from([Fraction(1, 2), Fraction(5, 4), Fraction(3)]))
    def test_coefficients_are_the_body(self, e, neg, pos):
        p = poly_coeffs(e)
        if not any(isinstance(n, Pow) for n in walk(e)):
            assert p is not None, to_text(e)
        ab = affine_parts(e)
        assert (ab is not None) == (p is not None and max(p, default=0) == 1)
        for x in (neg, pos):
            if p is not None:
                assert sum(evaluate(c) * x**d for d, c in p.items()) == evaluate(e, x), (to_text(e), x)
            if ab is not None:
                assert evaluate(ab[0]) * x + evaluate(ab[1]) == evaluate(e, x), (to_text(e), x)


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


# integral values (d = 1) are drawn often; numerators reach past 2**64
NUMERATORS = st.one_of(st.integers(-20, 20), st.integers(-(2**80), 2**80))
EXACT = st.builds(Fraction, NUMERATORS, st.one_of(st.just(1), st.integers(1, 12), st.integers(2**64, 2**70)))
# polynomial and rational expressions in x with exact coefficients
RATIONAL_IN_X = st.recursive(
    st.one_of(st.just(X), EXACT.map(Const)),
    lambda sub: st.one_of(
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(-2, 3)),
    ),
    max_leaves=6,
)


def assert_integral_is_int(m):
    """No coefficient or factor exponent of a sum map is a Fraction with
    denominator 1."""
    for factors, c in m.items():
        assert not (type(c) is Fraction and c.denominator == 1), (m, c)
        for f, q in factors:
            assert not (type(q) is Fraction and q.denominator == 1), (m, to_text(f), q)


class TestExactNumbers:
    """Constants and exponents hold an integral value as int.  Nodes,
    hashes, printed text and evaluated values are those of the Fraction,
    and no exact arithmetic turns into float arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(EXACT)
    @example(Fraction(10**20))
    @example(Fraction(-(2**64) - 1))
    @example(Fraction(0))
    def test_an_integral_value_is_the_fraction(self, v):
        c = Const(v)
        assert c == Const(Fraction(v.numerator, v.denominator))
        if v.denominator == 1:
            assert type(c.value) is int
            assert c == Const(v.numerator) and hash(c) == hash(Const(v.numerator))
            assert Pow(X, v) == Pow(X, v.numerator) and type(Pow(X, v).exponent) is int
        for e in (c, Mul(c, X), Pow(X, v)):
            back = parse_expr(to_text(e))
            assert back == e and to_text(back) == to_text(e)
        assert type(evaluate(c)) is Fraction and evaluate(c) == v

    @settings(max_examples=200, deadline=None)
    @given(EXACT, NUMERATORS.filter(bool))
    @example(Fraction(2), 2)  # x^(-2) at 2 is 1/4
    def test_exact_evaluation_stays_exact(self, v, n):
        for e, at, want in (
            (parse_expr("1/3"), None, Fraction(1, 3)),
            (Div(Const(v.numerator), Const(n)), None, Fraction(v.numerator, n)),
            (parse_expr("x^(-2)"), n, Fraction(1, n * n)),
            (Div(X, Const(n)), v.numerator, Fraction(v.numerator, n)),
        ):
            got = evaluate(e, at)
            assert type(got) is Fraction and got == want, (to_text(e), at)

    @pytest.mark.parametrize("text, want", [("4^(-1/2)", "1/2"), ("(9/4)^(-3/2)", "8/27"), ("8^(-2/3)", "1/4")])
    def test_an_exact_root_of_an_integral_base_folds(self, text, want):
        assert simplify(parse_expr(text)) == parse_expr(want)

    def test_an_irrational_power_stays_a_power(self):
        s = simplify(parse_expr("2^(-5/3)"))
        assert isinstance(s, Pow) and s.base == Const(2) and s.exponent == Fraction(-5, 3)
        assert math.isclose(evaluate(s), 2 ** (-5 / 3))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(NUMERATORS, min_size=1, max_size=3).filter(lambda d: d[-1] != 0),
           st.lists(EXACT, min_size=1, max_size=3))
    def test_exact_division_of_integral_polynomials(self, den, quot):
        den = dict(enumerate(den))
        want = {k: c for k, c in enumerate(quot) if c != 0}
        num: dict[int, Fraction] = {}
        for i, a in den.items():
            for k, c in want.items():
                num[i + k] = num.get(i + k, Fraction(0)) + a * c
        # integral coefficients as int, as constants hold them
        num = {d: c.numerator if c.denominator == 1 else c for d, c in num.items()}
        got = _poly_divide_exact(num, den)
        assert got == want
        assert not any(isinstance(c, float) for c in got.values())

    @settings(max_examples=200, deadline=None)
    @given(RATIONAL_IN_X)
    @example(parse_expr("x/(2 + x) + 2/(2 + x)"))  # cancels to 1
    @example(parse_expr("(x^2 - 1/4)/(x + 1/2) + x/3"))
    @example(parse_expr("(x/2 + 1/2)*(2*x - 2) - (1/2)*(2*x)^2"))
    def test_integral_coefficients_and_exponents_are_int(self, e):
        try:
            m = _snf(e)
        except DomainError:
            return
        assert_integral_is_int(m)
        assert_integral_is_int(_cancel_rational(m))
        s = simplify(e)
        for at in (Fraction(-3, 2), 0, Fraction(1, 3), 2, 7):
            try:
                want = evaluate(e, at)
                got = evaluate(s, at)
            except DomainError:
                continue
            assert type(got) is Fraction and got == want, (to_text(e), to_text(s), at)

    @pytest.mark.parametrize("text", ["x^(1/2)*x^(1/2)", "(x^(1/3))^3", "exp(x/2)*exp(x/2)", "(2*x)^(1/3)*x^(2/3)"])
    def test_exponents_that_add_up_to_an_integer_are_int(self, text):
        assert_integral_is_int(_cancel_rational(_snf(parse_expr(text))))

    @pytest.mark.parametrize(
        "text, want", [("(3^80)^(1/2)", 3**40), ("(10^400)^(1/2)", 10**200), ("(2^300)^(1/3)", 2**100)]
    )
    def test_an_exact_root_of_a_huge_integer_folds(self, text, want):
        assert simplify(parse_expr(text)) == Const(want)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**200), st.integers(2, 5))
    @example(3**40, 2)
    @example(2**100, 3)
    @example(10**200, 2)
    def test_integer_roots_are_exact(self, r, k):
        assert _iroot(r**k, k) == r
        if r >= 1:
            assert _iroot(r**k + 1, k) is None


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
