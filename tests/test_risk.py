"""Tail-risk functionals built on top of the convex machinery."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwconvex import (
    AssumptionEnv,
    DistributionSpec,
    cvar,
    quantile,
    risk,
    superexpectation,
    superexpectation_conjugate,
    superquantile,
)
from pwconvex.errors import InputError, NoFirstMoment, POutOfRange
from pwconvex.expr import evaluate
from pwconvex.pwf import eval_pwf

ENV = AssumptionEnv.empty()
INF = math.inf

UNIFORM = "pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> x ; x >= 1 -> 1 }"
EXPONENTIAL = "pw{ x < 0 -> 0 ; x >= 0 -> 1 - exp(-x) }"
POINT_MASS_2 = "pw{ x < 2 -> 0 ; x >= 2 -> 1 }"
PARETO_2 = "pw{ x < 1 -> 0 ; x >= 1 -> 1 - 1/x^2 }"
COIN = "pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> 1/2 ; x >= 1 -> 1 }"


def num(v):
    return float(evaluate(v)) if not isinstance(v, (int, float, Fraction)) else float(v)


class TestSuperexpectation:
    def test_uniform_exact(self):
        d = DistributionSpec.from_cdf(UNIFORM, ENV)
        E = superexpectation(d)
        # integral of max(t, x) dt over [0,1]
        assert eval_pwf(E, Fraction(1, 2)) == Fraction(5, 8)
        assert eval_pwf(E, 0) == Fraction(1, 2)  # the plain mean
        assert eval_pwf(E, -3) == Fraction(1, 2)
        assert eval_pwf(E, 2) == 2

    def test_point_mass_is_max(self):
        E = superexpectation(DistributionSpec.from_cdf(POINT_MASS_2, ENV))
        assert eval_pwf(E, 0) == 2
        assert eval_pwf(E, 2) == 2
        assert eval_pwf(E, 5) == 5

    def test_coin_flip(self):
        E = superexpectation(DistributionSpec.from_cdf(COIN, ENV))
        assert eval_pwf(E, -1) == Fraction(1, 2)
        assert eval_pwf(E, Fraction(1, 2)) == Fraction(3, 4)
        assert eval_pwf(E, 3) == 3

    def test_exponential(self):
        E = superexpectation(DistributionSpec.from_cdf(EXPONENTIAL, ENV))
        assert eval_pwf(E, 0) == 1  # mean of the unit exponential
        x = Fraction(2)
        assert abs(float(eval_pwf(E, x)) - (2 + math.exp(-2))) < 1e-12

    def test_pareto_two(self):
        E = superexpectation(DistributionSpec.from_cdf(PARETO_2, ENV))
        assert eval_pwf(E, 1) == 2
        assert eval_pwf(E, 10) == Fraction(101, 10)
        assert eval_pwf(E, 0) == 2  # flat at the mean below the support

    def test_heavy_tail_rejected(self):
        d = DistributionSpec.from_cdf("pw{ x < 1 -> 0 ; x >= 1 -> 1 - x^(-1/2) }", ENV)
        with pytest.raises(NoFirstMoment):
            superexpectation(d)


class TestQuantiles:
    def test_uniform(self):
        d = DistributionSpec.from_cdf(UNIFORM, ENV)
        assert num(quantile(d, Fraction(1, 4))) == 0.25
        assert num(superquantile(d, Fraction(1, 2))) == 0.75
        assert num(cvar(d, Fraction(9, 10))) == 0.95

    def test_coin_jump(self):
        d = DistributionSpec.from_cdf(COIN, ENV)
        assert num(quantile(d, Fraction(1, 4))) == 0
        assert num(quantile(d, Fraction(3, 4))) == 1
        # averaging over the upper half mixes the two atoms
        assert num(superquantile(d, Fraction(1, 2))) == 1

    def test_exponential_closed_forms(self):
        d = DistributionSpec.from_cdf(EXPONENTIAL, ENV)
        q = quantile(d, Fraction(1, 2))
        assert abs(num(q) - math.log(2)) < 1e-12
        c = cvar(d, Fraction(19, 20))
        assert abs(num(c) - (1 + math.log(20))) < 1e-12

    def test_out_of_range(self):
        d = DistributionSpec.from_cdf(UNIFORM, ENV)
        with pytest.raises(POutOfRange):
            quantile(d, Fraction(3, 2))
        with pytest.raises(POutOfRange):
            superquantile(d, 1)
        with pytest.raises(POutOfRange):
            cvar(d, Fraction(-1, 10))


class TestConjugateRoute:
    def test_exponential_exact_pieces(self):
        d = DistributionSpec.from_cdf(EXPONENTIAL, ENV)
        C = superexpectation_conjugate(d)
        assert C.varname == "p"
        assert eval_pwf(C, 0) == -1
        assert eval_pwf(C, 1) == 0
        p = Fraction(1, 2)
        expect = -1 + 0.5 - 0.5 * math.log(0.5) + math.log(0.5)
        assert abs(float(eval_pwf(C, p)) - expect) < 1e-12
        assert eval_pwf(C, 2) == INF
        assert eval_pwf(C, Fraction(-1, 2)) == INF

    def test_uniform_exact_pieces(self):
        d = DistributionSpec.from_cdf(UNIFORM, ENV)
        C = superexpectation_conjugate(d)
        # E(x) has slope p where F(x) = 1 - ... ; conjugate lives on [0, 1]
        assert eval_pwf(C, 0) == Fraction(-1, 2)
        assert eval_pwf(C, 1) == 0
        assert eval_pwf(C, Fraction(1, 2)) == Fraction(-3, 8)

    def test_superquantile_secant_identity(self):
        # (E(x) - x*? ) route: -E*(p)/(1-p) must agree with the direct walk
        for text in (UNIFORM, EXPONENTIAL, COIN, PARETO_2):
            d = DistributionSpec.from_cdf(text, ENV)
            C = superexpectation_conjugate(d)
            for p in (Fraction(1, 10), Fraction(1, 2), Fraction(4, 5)):
                lhs = num(superquantile(d, p))
                rhs = -float(eval_pwf(C, p)) / float(1 - p)
                assert abs(lhs - rhs) < 1e-9, (text, p)


# each law with its superquantile in closed form, (1/(1-p)) * int_p^1 Q(t) dt
SUPERQUANTILES = [
    ("cdf", UNIFORM, lambda p: (1 + p) / 2),
    ("cdf", EXPONENTIAL, lambda p: 1 - math.log(1 - p)),
    ("cdf", COIN, lambda p: 1 / (2 * (1 - p)) if p < 0.5 else 1.0),
    ("cdf", PARETO_2, lambda p: 2 / math.sqrt(1 - p)),
    ("quantile", "p", lambda p: (1 + p) / 2),
    ("quantile", "2", lambda p: 2.0),
    ("quantile", "-ln(1 - p)", lambda p: 1 - math.log(1 - p)),
]


class TestFenchelYoungRoute:
    """The superquantile is (E(q) - p*q)/(1 - p) at the quantile q; the
    conjugate of the superexpectation is the independent cross-check."""

    @pytest.mark.parametrize("source, text, closed", SUPERQUANTILES)
    def test_no_conjugate_is_built(self, monkeypatch, source, text, closed):
        def refuse(*args, **kwargs):
            raise AssertionError("the superquantile built a conjugate")

        monkeypatch.setattr(risk, "conjugate", refuse)
        make = DistributionSpec.from_cdf if source == "cdf" else DistributionSpec.from_quantile
        d = make(text, ENV)
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(4, 5)):
            want = closed(float(p))
            assert abs(num(superquantile(d, p)) - want) <= 1e-12 * abs(want), (text, p)
            assert num(cvar(d, p)) == num(superquantile(d, p))

    def test_cubic_distribution_function(self):
        # ROADMAP 2b's risk repro, F = x^3/2 + x/2 on [0, 1), pinned without
        # the library: q solves q^3 + q = 2/3 (bisection at 50 digits), and
        # the tail average is q + int_q^1 (1 - F) dx / (1 - p), where the
        # integral is 5/8 - q + q^2/4 + q^4/8
        with localcontext() as ctx:
            ctx.prec = 50
            lo, hi = Decimal(0), Decimal(1)
            for _ in range(200):
                mid = (lo + hi) / 2
                if mid**3 + mid < Decimal(2) / 3:
                    lo = mid
                else:
                    hi = mid
            q = lo
            want = q + (Decimal(5) / 8 - q + q**2 / 4 + q**4 / 8) * Decimal(3) / 2
        assert str(want).startswith("0.79260169446435956220")
        d = DistributionSpec.from_cdf("pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> x^3/2 + x/2 ; x >= 1 -> 1 }", ENV)
        got = num(superquantile(d, Fraction(1, 3)))
        assert abs(got - float(want)) <= 1e-12 * float(want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tail_average_of_a_piecewise_uniform_law(self, data):
        # a law with atoms at the breakpoints and uniform mass between them
        n = data.draw(st.integers(1, 3), label="cells")
        steps = data.draw(st.lists(st.fractions(Fraction(1, 4), 3, max_denominator=4), min_size=n, max_size=n))
        start = data.draw(st.fractions(-2, 2, max_denominator=4), label="start")
        bps = [start]
        for h in steps:
            bps.append(bps[-1] + h)
        weights = data.draw(st.lists(st.integers(0, 4), min_size=2 * n + 1, max_size=2 * n + 1))
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        atoms = [Fraction(w, total) for w in weights[: n + 1]]
        spread = [Fraction(w, total) for w in weights[n + 1 :]]
        rows, cum, quantile_parts = [f"x < {_dsl(bps[0])} -> 0"], Fraction(0), []
        for i in range(n):
            quantile_parts.append((cum, cum + atoms[i], bps[i], bps[i]))
            cum += atoms[i]
            quantile_parts.append((cum, cum + spread[i], bps[i], bps[i + 1]))
            slope = spread[i] / (bps[i + 1] - bps[i])
            body = f"{_dsl(cum)} + {_dsl(slope)}*(x - {_dsl(bps[i])})"
            rows.append(f"{_dsl(bps[i])} <= x & x < {_dsl(bps[i + 1])} -> {body}")
            cum += spread[i]
        quantile_parts.append((cum, Fraction(1), bps[n], bps[n]))
        rows.append(f"x >= {_dsl(bps[n])} -> 1")
        # at a level the law reaches exactly, the quantile set is an interval
        levels = sorted({a for a, _, _, _ in quantile_parts if 0 < a < 1})
        any_level = st.fractions(Fraction(1, 64), Fraction(63, 64), max_denominator=64)
        p = data.draw(st.sampled_from(levels) | any_level if levels else any_level, label="p")
        # int_p^1 Q(t) dt: Q is linear from x0 to x1 on each level range (a, b)
        tail = Fraction(0)
        for a, b, x0, x1 in quantile_parts:
            lo = max(a, p)
            if lo < b:
                tail += (b - lo) * (x0 + (x1 - x0) * (lo - a) / (b - a) + x1) / 2
        d = DistributionSpec.from_cdf("pw{ " + " ; ".join(rows) + " }", ENV)
        got = superquantile(d, p)
        assert evaluate(got) == tail / (1 - p)
        secant = -eval_pwf(superexpectation_conjugate(d), p) / (1 - p)
        assert secant == tail / (1 - p)


def _dsl(v: Fraction) -> str:
    s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return f"({s})" if v < 0 else s


class TestQuantileInput:
    def test_uniform_from_quantile(self):
        d = DistributionSpec.from_quantile("p", ENV)
        E = superexpectation(d)
        assert eval_pwf(E, Fraction(1, 2)) == Fraction(5, 8)
        assert num(superquantile(d, Fraction(1, 2))) == 0.75

    def test_point_mass_from_constant_quantile(self):
        d = DistributionSpec.from_quantile("2", ENV)
        E = superexpectation(d)
        assert eval_pwf(E, 0) == 2
        assert eval_pwf(E, 3) == 3

    def test_agrees_with_cdf_route(self):
        dq = DistributionSpec.from_quantile("-ln(1 - p)", ENV)
        dc = DistributionSpec.from_cdf(EXPONENTIAL, ENV)
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
            assert abs(num(quantile(dq, p)) - num(quantile(dc, p))) < 1e-9
            assert abs(num(superquantile(dq, p)) - num(superquantile(dc, p))) < 1e-9


class TestCdfValidation:
    def test_decreasing_rejected(self):
        with pytest.raises(InputError):
            DistributionSpec.from_cdf("pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> 1 - x ; x >= 1 -> 1 }", ENV)

    def test_bad_left_tail(self):
        with pytest.raises(InputError):
            DistributionSpec.from_cdf("pw{ x < 0 -> 1/4 ; x >= 0 -> 1 }", ENV)

    def test_bad_right_tail(self):
        with pytest.raises(InputError):
            DistributionSpec.from_cdf("pw{ x < 0 -> 0 ; x >= 0 -> 1/2 }", ENV)

    def test_left_continuous_jump_rejected(self):
        # CDF must take the upper value at a jump
        with pytest.raises(InputError):
            DistributionSpec.from_cdf("pw{ x <= 0 -> 0 ; x > 0 -> 1 }", ENV)

    def test_values_outside_unit_interval(self):
        with pytest.raises(InputError):
            DistributionSpec.from_cdf("pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> 2*x ; x >= 1 -> 1 }", ENV)
