"""Certification happens where input enters, and nowhere else.

Parsing certifies each piece once (``grid.certify`` with
``pwf.classify_piece`` or ``monop.classify_op_piece``); the builders read
a piece's kind from its body.  The transforms build pieces that are
convex or monotone by theorem, so running the boundary certifier on their
outputs must raise nothing and agree with the kinds the builders read,
and the transforms must run with every certifier disabled.
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
    invert,
    maximal_extension,
    parse_operator,
    parse_pwf,
    prox,
    quantile,
    recover_penalty,
    subdifferential,
    superexpectation,
    superquantile,
)
from pwconvex import inverse, monop, pwf
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
    certifier = classify_op_piece if isinstance(g, MonotoneOperator) else classify_piece
    kinds = certify(g.breakpoints, g.pieces, g.env, certifier, g.varname)
    assert kinds == [None if p.empty else p.kind for p in g.pieces], str(g)


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


def test_transforms_certify_nothing_after_parsing(corpus, monkeypatch):
    T = parse_operator(HARD, ENV)
    specs = [(DistributionSpec.from_cdf if kind == "cdf" else DistributionSpec.from_quantile)(text, ENV)
             for kind, text in DISTRIBUTIONS]
    # every pwconvex namespace that binds a certifier
    certifiers = (pwf.classify_piece, monop.classify_op_piece, inverse.check_strictly_monotone)
    modules = [m for name, m in sys.modules.items() if name.startswith("pwconvex")]
    for module in modules:
        for original in certifiers:
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, _certified_after_parsing)
    for f in corpus.values():
        transform_outputs(f)
    recover_penalty(T)
    maximal_extension(T)
    for d in specs:
        superexpectation(d)
        superquantile(d, Fraction(1, 2))
        quantile(d, Fraction(1, 4))
