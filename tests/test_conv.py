"""Integration of operators and Fenchel conjugation."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from pwconvex import (
    AssumptionEnv,
    biconjugate,
    conjugate,
    integ,
    parse_operator,
    parse_pwf,
    subdifferential,
)
from pwconvex.errors import InputError
from pwconvex.pwf import eval_pwf

ENV = AssumptionEnv.empty()
INF = math.inf


def f_at(f, x):
    v = eval_pwf(f, x)
    return float(v)


class TestInteg:
    def test_recovers_abs(self):
        S = subdifferential(parse_pwf("abs(x)", ENV))
        f = integ(S)
        for x in (-3, -1, 0, Fraction(1, 2), 2):
            assert eval_pwf(f, x) == abs(Fraction(x))

    def test_anchor_shifts_constant(self):
        S = subdifferential(parse_pwf("x^2/2", ENV))
        f = integ(S, anchor=2, anchor_value=7)
        assert eval_pwf(f, 2) == 7
        assert eval_pwf(f, 0) == 5  # 7 - 2^2/2

    def test_anchor_outside_the_domain_is_bad_input(self):
        S = subdifferential(parse_pwf("pw{ x < 0 -> inf ; x >= 0 -> x^2 }", ENV))
        with pytest.raises(InputError, match="outside the domain"):
            integ(S, anchor=-1, anchor_value=0)

    def test_domain_gap_bridged_by_secant(self):
        # 0 left of -1, 1 right of +1, nothing in between: the potential
        # crosses the hole linearly with the secant slope 1/2
        T = parse_operator(
            "sd{ x < -1 -> {0} ; x = -1 -> {0} ; -1 < x & x < 1 -> empty ;"
            " x = 1 -> {1} ; x > 1 -> {1} }",
            ENV,
        )
        f = integ(T, 0, 0)
        assert eval_pwf(f, 0) == 0
        assert eval_pwf(f, -1) == Fraction(-1, 2)
        assert eval_pwf(f, -5) == Fraction(-1, 2)
        assert eval_pwf(f, Fraction(1, 2)) == Fraction(1, 4)
        assert eval_pwf(f, 3) == Fraction(5, 2)

    def test_nonelementary_piece_falls_back_to_quadrature(self):
        T = parse_operator(
            "sd{ x < 0 -> {exp(x^3)} ; x = 0 -> {1} ; x > 0 -> {exp(x^3)} }", ENV
        )
        f = integ(T, 0, 0)
        assert abs(f_at(f, 1) - 1.3419044179774198) < 1e-9
        assert abs(f_at(f, -1) - (-0.80751118213554)) < 1e-9


class TestConjugatePairs:
    def test_abs_to_box_indicator(self):
        g = conjugate(parse_pwf("abs(x)", ENV))
        assert eval_pwf(g, 0) == 0
        assert eval_pwf(g, 1) == 0
        assert eval_pwf(g, -1) == 0
        assert eval_pwf(g, Fraction(3, 2)) == INF
        assert eval_pwf(g, -2) == INF

    def test_half_square_is_self_conjugate(self):
        g = conjugate(parse_pwf("x^2/2", ENV))
        for y in (-2, 0, Fraction(1, 3), 5):
            assert eval_pwf(g, y) == Fraction(y) ** 2 / 2

    def test_quartic_value(self):
        g = conjugate(parse_pwf("x^4", ENV))
        # sup_x (x - x^4) = 3*(1/4)^(4/3)
        assert abs(f_at(g, 1) - 3 * 0.25 ** (4 / 3)) < 1e-12
        assert eval_pwf(g, 0) == 0

    def test_exp_to_entropy(self):
        g = conjugate(parse_pwf("exp(x)", ENV))
        assert eval_pwf(g, 1) == -1  # 1*ln 1 - 1, exact
        assert eval_pwf(g, 0) == 0  # closure value at y = 0
        assert eval_pwf(g, -1) == INF
        y = Fraction(3, 2)
        assert abs(f_at(g, y) - (1.5 * math.log(1.5) - 1.5)) < 1e-12

    def test_negative_log_pair(self):
        f = parse_pwf("pw{ x <= 0 -> inf ; x > 0 -> -ln(x) }", ENV)
        g = conjugate(f)
        assert eval_pwf(g, -1) == -1  # -1 - ln(1)
        assert abs(f_at(g, -2) - (-1 - math.log(2))) < 1e-12
        assert eval_pwf(g, 1) == INF
        assert eval_pwf(g, 0) == INF

    def test_huber_pair(self):
        f = parse_pwf(
            "pw{ x < -1 -> -x - 1/2 ; -1 <= x & x <= 1 -> x^2/2 ; x > 1 -> x - 1/2 }",
            ENV,
        )
        g = conjugate(f)
        for y in (-1, Fraction(-1, 2), 0, Fraction(2, 3), 1):
            assert eval_pwf(g, y) == Fraction(y) ** 2 / 2
        assert eval_pwf(g, 2) == INF

    def test_quadrature_from_a_square_root_end(self):
        # (f')^-1 for f' = x^3 + 3x^2 goes like sqrt(y/3) at 0; one 64-node
        # panel missed the limit at 0 by more than the continuity check
        # allows.  Halving gains about 2^1.5 per level at such an end, so the
        # 8 levels leave 2e-11 in the constant pinned through [0, 1]
        g = conjugate(parse_pwf("pw{ x < 0 -> inf ; x >= 0 -> x^4/4 + x^3 }", ENV))
        assert eval_pwf(g, 0) == 0
        for y in (0.5, 2.0, 5.0):
            lo, hi = 0.0, y
            for _ in range(100):
                x = (lo + hi) / 2
                lo, hi = (x, hi) if x**3 + 3 * x**2 < y else (lo, x)
            assert abs(f_at(g, y) - (x * y - x**4 / 4 - x**3)) < 1e-10

    def test_constant_from_a_square_root_end(self):
        # the same conjugate, integrated in closed form: its constant is the
        # value at the base 1, sup_x (x - x^4/4 - x^3) = 0.3614056018219284704...
        # at the root of x^3 + 3x^2 = 1, to 40 digits by decimal bisection
        g = conjugate(parse_pwf("pw{ x < 0 -> inf ; x >= 0 -> x^4/4 + x^3 }", ENV))
        with localcontext() as ctx:
            ctx.prec = 40
            lo, hi = Decimal(0), Decimal(1)
            for _ in range(140):
                x = (lo + hi) / 2
                lo, hi = (x, hi) if x**3 + 3 * x**2 < 1 else (lo, x)
            exact = float(x - x**4 / 4 - x**3)
        assert abs(f_at(g, 1) - exact) <= 1e-15 * exact

    def test_affine_to_shifted_point_indicator(self):
        g = conjugate(parse_pwf("2*x + 3", ENV))
        assert eval_pwf(g, 2) == -3
        assert eval_pwf(g, 0) == INF
        assert eval_pwf(g, 3) == INF

    def test_box_indicator_to_support_function(self):
        f = parse_pwf("pw{ x < -1 -> inf ; -1 <= x & x <= 2 -> 0 ; x > 2 -> inf }", ENV)
        g = conjugate(f)
        assert eval_pwf(g, -3) == 3
        assert eval_pwf(g, 0) == 0
        assert eval_pwf(g, 1) == 2
        assert eval_pwf(g, Fraction(5, 2)) == 5

    def test_fenchel_young_on_corpus(self, corpus):
        pts = [Fraction(-5, 2), -1, 0, Fraction(1, 3), 1, 3]
        for name, f in corpus.items():
            g = conjugate(f)
            for x in pts:
                fx = eval_pwf(f, x)
                if fx == INF:
                    continue
                for y in pts:
                    gy = eval_pwf(g, y)
                    if gy == INF:
                        continue
                    assert fx + gy >= Fraction(x) * Fraction(y) - Fraction(1, 10**12), name


class TestBiconjugate:
    def test_identity_on_corpus(self, corpus):
        pts = [-4, Fraction(-3, 2), -1, 0, Fraction(1, 2), 1, Fraction(9, 4), 6]
        for name, f in corpus.items():
            h = biconjugate(f)
            for x in pts:
                a, b = eval_pwf(f, x), eval_pwf(h, x)
                if a == INF or b == INF:
                    assert a == b, (name, x)
                else:
                    assert abs(float(a) - float(b)) < 1e-9, (name, x)

    def test_exact_on_half_square(self):
        f = parse_pwf("x^2/2", ENV)
        h = biconjugate(f)
        for x in (-3, Fraction(1, 7), 2):
            assert eval_pwf(h, x) == Fraction(x) ** 2 / 2


class TestParametricConjugate:
    def test_scaled_abs(self):
        env = AssumptionEnv.parse(["0 < a"])
        g = conjugate(parse_pwf("a*abs(x)", env))
        # indicator of [-a, a]
        binding = {"a": Fraction(3)}
        assert eval_pwf(g, 2, binding) == 0
        assert eval_pwf(g, 3, binding) == 0
        assert eval_pwf(g, 4, binding) == INF
