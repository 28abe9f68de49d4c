"""Certification happens where input enters, and nowhere else.

Parsing certifies each piece once (``grid.certify`` with
``pwf.classify_piece`` or ``monop.classify_op_piece``); grids store bodies
only, and the rendered JSON reads a piece's kind from its body.  The
transforms build pieces that are convex or monotone by theorem, so running
the boundary certifier on their outputs must raise nothing and agree with
the kinds the JSON shows, and the transforms must run with every
certifier disabled.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import CORPUS_TEXTS
from test_plq_properties import plq_functions

from pwconvex import (
    AssumptionEnv,
    DistributionSpec,
    biconjugate,
    conjugate,
    function_to_json,
    invert,
    maximal_extension,
    operator_to_json,
    parse_operator,
    parse_pwf,
    prox,
    quantile,
    recover_penalty,
    subdifferential,
    superexpectation,
    superquantile,
)
from pwconvex import conv, inverse, monop, pwf, risk
from pwconvex.conv import _shift_by
from pwconvex.grid import certify
from pwconvex.monop import MonotoneOperator, classify_op_piece
from pwconvex.penalty import HALF_SQUARE
from pwconvex.pwf import classify_piece

ENV = AssumptionEnv.empty()
HARD = (
    "sd{ x < -1 -> {x} ; x = -1 -> {-1, 0} ; -1 < x & x < 1 -> {0} ;"
    " x = 1 -> {0, 1} ; x > 1 -> {x} }"
)
DISTRIBUTIONS = [
    ("cdf", "pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> x ; x >= 1 -> 1 }"),
    ("cdf", "pw{ x < 0 -> 0 ; x >= 0 -> 1 - exp(-x) }"),
    ("cdf", "pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> 1/2 ; x >= 1 -> 1 }"),
    ("quantile", "p^2"),
]


def transform_outputs(f):
    """Every transform of f, and of its subdifferential, with the grid the
    boundary certifier reads for each: a recovered penalty is certified as
    verify_penalty certifies it, through f + x^2/2."""
    T = subdifferential(f)
    P = prox(f, 1)
    penalty = recover_penalty(P)
    return [T, conjugate(f), biconjugate(f), P, invert(T), _shift_by(penalty, HALF_SQUARE)]


def assert_certified(g):
    is_op = isinstance(g, MonotoneOperator)
    certifier = classify_op_piece if is_op else classify_piece
    kinds = certify(g.breakpoints, g.pieces, g.env, certifier, g.varname)
    shown = (operator_to_json if is_op else function_to_json)(g)["pieces"]
    assert kinds == [None if p.empty else q["kind"] for p, q in zip(g.pieces, shown)], str(g)


@pytest.mark.parametrize("name", CORPUS_TEXTS)
def test_corpus_outputs_pass_the_boundary_certifier(corpus, name):
    for g in transform_outputs(corpus[name]):
        assert_certified(g)


@settings(max_examples=25, deadline=None)
@given(plq_functions())
def test_plq_outputs_pass_the_boundary_certifier(case):
    text, _ = case
    for g in transform_outputs(parse_pwf(text, ENV)):
        assert_certified(g)


def _certified_after_parsing(*args, **kwargs):
    raise AssertionError("a transform certified a piece")


def test_transforms_certify_nothing_after_parsing(monkeypatch):
    # fresh objects: the shared corpus keeps the transforms earlier tests
    # built, and a kept transform would run nothing under the patch
    functions = [parse_pwf(text, ENV) for text in CORPUS_TEXTS.values()]
    T = parse_operator(HARD, ENV)
    specs = [(DistributionSpec.from_cdf if kind == "cdf" else DistributionSpec.from_quantile)(text, ENV)
             for kind, text in DISTRIBUTIONS]
    built = {}
    for module, name in ((monop, "_subdifferential"), (conv, "_conjugate"), (risk, "_superexpectation")):
        def counted(obj, build=getattr(module, name), name=name):
            built.setdefault(name, set()).add(id(obj))
            return build(obj)
        monkeypatch.setattr(module, name, counted)
    # every pwconvex namespace that binds a certifier
    certifiers = (pwf.classify_piece, monop.classify_op_piece, inverse.check_strictly_monotone)
    modules = [m for name, m in sys.modules.items() if name.startswith("pwconvex")]
    for module in modules:
        for original in certifiers:
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, _certified_after_parsing)
    for f in functions:
        transform_outputs(f)
    recover_penalty(T)
    maximal_extension(T)
    for d in specs:
        superexpectation(d)
        superquantile(d, Fraction(1, 2))
        quantile(d, Fraction(1, 4))
    # each transform was built under the patch, not read from a kept one
    fs = {id(f) for f in functions}
    assert fs <= built["_subdifferential"] and fs <= built["_conjugate"]
    assert {id(d) for d in specs} <= built["_superexpectation"]
