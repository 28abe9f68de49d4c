"""Each fast path of the canonicalizer and of the tree queries returns
what the general code it stands in for returns.

The general code is written out here as the reference: the pairwise
product of two sum maps, the one-factor key through ``_canon_factors``,
the factor key that renders every factor, and the queries over ``walk``.
"""

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pwconvex import expr
from pwconvex.errors import DomainError
from pwconvex.expr import (
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
    Var,
    X,
    contains_var,
    is_numeric_node,
    parse_expr,
    to_text,
    walk,
)
from pwconvex.monop import eval_op, prox
from pwconvex.pwf import parse_pwf
from pwconvex.simplify import (
    _add_term,
    _canon_factors,
    _const_map,
    _factor_key,
    _mul_maps,
    _single,
    _snf,
    simplify,
)

RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
NUMBERS = st.one_of(st.integers(-6, 6), RATIONALS, st.floats(-4, 4, allow_nan=False))
LEAVES = st.one_of(
    st.just(X),
    st.builds(Const, RATIONALS),
    st.builds(Const, st.floats(-4, 4)),
    st.sampled_from([Param("a"), Param("b")]),
)


def _grow(sub):
    return st.one_of(
        st.builds(Neg, sub), st.builds(Abs, sub), st.builds(Exp, sub), st.builds(Ln, sub),
        st.builds(Add, sub, sub), st.builds(Sub, sub, sub), st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub), st.builds(Pow, sub, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))),
    )


# the grammar's expressions, with exp, ln and abs factors and parameters
EXPRS = st.recursive(LEAVES, _grow, max_leaves=8)
# the same with the two numeric node kinds, each holding an expression
NUMERIC = st.one_of(
    st.builds(ImplicitInverse, EXPRS, st.just(-math.inf), st.one_of(st.just(math.inf), EXPRS)),
    st.builds(NumericIntegral, EXPRS, EXPRS, st.one_of(st.none(), EXPRS)),
)
TREES = st.recursive(st.one_of(LEAVES, NUMERIC), _grow, max_leaves=8)


def canonical_map(e):
    """_snf(e), or no example where e has no canonical form (DomainError,
    a float power that overflows among them)."""
    try:
        return _snf(e)
    except DomainError:
        assume(False)


def pairwise(a, b):
    """The general product of two sum maps: every pair of terms, its
    factors canonicalized again."""
    out = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            coeff = ca * cb
            if coeff != 0:
                _add_term(out, _canon_factors(fa + fb), coeff)
    return out


def same_map(m, n) -> bool:
    """Equal keys in the same order, with coefficients of the same type."""
    return [(k, type(c), c) for k, c in m.items()] == [(k, type(c), c) for k, c in n.items()]


class TestConst:
    @given(NUMBERS, NUMBERS)
    @example(3, Fraction(6, 2))
    @example(2**70, Fraction(2**71, 2))
    @example(Fraction(1, 2), 0.5)
    @example(1, 1.0)
    @example(0.0, -0.0)
    def test_equal_nodes_hash_alike_and_a_float_is_its_own_node(self, u, v):
        if Const(u) == Const(v):
            assert hash(Const(u)) == hash(Const(v))
        if (type(u) is float) != (type(v) is float):
            assert Const(u) != Const(v)
        elif u == v:
            assert Const(u) == Const(v)


class TestTreeQueries:
    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_queries_are_their_walks(self, e):
        assert contains_var(e) == any(isinstance(n, Var) for n in walk(e))
        assert is_numeric_node(e) == any(isinstance(n, (ImplicitInverse, NumericIntegral)) for n in walk(e))

    def test_a_kernel_compiles_in_one_pass(self, monkeypatch):
        # the first evaluation of a prox output compiles its solver's kernels
        T = prox(parse_pwf("x^4/4 + 3*x^2/7"), 1)
        forward = next(n for p in T.pieces if p.body is not None for n in walk(p.body)
                       if isinstance(n, ImplicitInverse)).forward
        calls = {"walkers": 0, "children": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("contains_var", "is_numeric_node", "walk"):
            monkeypatch.setattr(expr, name, counted("walkers", getattr(expr, name)))
        monkeypatch.setattr(expr, "children", counted("children", expr.children))
        for e in (forward, expr.differentiate(forward)):
            size = sum(1 for _ in walk(e))
            calls.update(walkers=0, children=0)
            expr._kernel_template.__wrapped__(e)
            assert calls["walkers"] <= 1 and calls["children"] <= size, (to_text(e), calls, size)
        assert eval_op(T, Fraction(1, 3)).tag == "point"


class TestCanonicalizer:
    @settings(max_examples=200, deadline=None)
    @given(TREES)
    def test_factor_key_is_the_rendered_key(self, f):
        order = {Var: 0, Param: 1, Exp: 2, Ln: 3, Abs: 4}.get(type(f), 5)
        assert _factor_key(f) == (order, to_text(f))

    @settings(max_examples=200, deadline=None)
    @given(TREES)
    def test_single_is_the_canonical_factor(self, f):
        assume(not isinstance(f, Const))  # a factor is never a constant
        if isinstance(f, Exp):
            canonical_map(f.arg)
        factors = _canon_factors([(f, 1)])
        assert same_map(_single(f), {factors: 1} if factors else {(): 1})

    @settings(max_examples=200, deadline=None)
    @given(EXPRS, NUMBERS)
    @example(Mul(Const(1e-200), X), 1e-200)  # the product underflows to 0.0
    def test_a_product_with_a_constant_is_the_pairwise_product(self, e, c):
        m = canonical_map(e)
        k = _const_map(c)
        assert same_map(_mul_maps(k, m), pairwise(k, m))
        assert same_map(_mul_maps(m, k), pairwise(m, k))

    @settings(max_examples=300, deadline=None)
    @given(EXPRS)
    @example(parse_expr("exp(a*x)*exp(0 - a*x)*ln(abs(b))"))
    # a single-term power whose float coefficient underflows to 0
    @example(Pow(Div(X, Div(Const(1.505510921422818e-274), X)), -2))
    # a float power that overflows
    @example(Pow(Const(1.689614852895069e-273), -2))
    def test_simplify_is_idempotent_and_keeps_a_canonical_tree(self, e):
        canonical_map(e)
        s = simplify(e)
        assert simplify(s) == s
        # the body without the cache: a canonical tree comes back as itself
        assert simplify.__wrapped__(s) is s
