"""Transforms kept on their input.

``subdifferential``, ``conjugate`` and ``superexpectation`` are pure
functions of a frozen object, its assumption environment included, so
each is built once per object and kept on it (``grid.kept``).  The kept
value is not part of the object's value: equality, hashing, printing and
``dataclasses.replace`` do not see it.
"""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from test_plq_properties import plq_functions

from pwconvex import (
    AssumptionEnv,
    DistributionSpec,
    biconjugate,
    conjugate,
    function_to_json,
    operator_to_json,
    parse_pwf,
    prox,
    subdifferential,
    superexpectation,
    superquantile,
)
from pwconvex import conv, monop, risk

ENV = AssumptionEnv.empty()
HUBER = "pw{ x < -1 -> -x - 1/2 ; -1 <= x & x <= 1 -> x^2/2 ; x > 1 -> x - 1/2 }"
UNIFORM = "pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> x ; x >= 1 -> 1 }"


def test_each_transform_is_built_once_per_object():
    f = parse_pwf(HUBER, ENV)
    d = DistributionSpec.from_cdf(UNIFORM, ENV)
    assert subdifferential(f) is subdifferential(f)
    assert conjugate(f) is conjugate(f)
    assert biconjugate(f) is conjugate(conjugate(f))
    assert superexpectation(d) is superexpectation(d)
    # a twin parsed again is another object, with its own transforms
    assert conjugate(parse_pwf(HUBER, ENV)) is not conjugate(f)


def test_replace_does_not_carry_kept_transforms():
    f = parse_pwf(HUBER, ENV)
    conjugate(f)
    g = replace(f, varname="y")
    assert g._kept == {}
    assert conjugate(g) is not conjugate(f)
    assert conjugate(g) == conjugate(parse_pwf(HUBER.replace("x", "y"), ENV))


def test_kept_transforms_are_not_part_of_the_value():
    f, d = parse_pwf(HUBER, ENV), DistributionSpec.from_cdf(UNIFORM, ENV)
    biconjugate(f)
    prox(f, 1)
    superquantile(d, Fraction(1, 2))
    assert f._kept and d._kept
    f_twin, d_twin = parse_pwf(HUBER, ENV), DistributionSpec.from_cdf(UNIFORM, ENV)
    for obj, twin in ((f, f_twin), (d, d_twin)):
        assert not twin._kept
        assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)


@pytest.mark.parametrize("module, builder, transform, make", [
    (monop, "_subdifferential", subdifferential, lambda: parse_pwf(HUBER, ENV)),
    (conv, "_conjugate", conjugate, lambda: parse_pwf(HUBER, ENV)),
    (risk, "_superexpectation", superexpectation, lambda: DistributionSpec.from_cdf(UNIFORM, ENV)),
])
def test_a_call_that_raises_keeps_nothing(monkeypatch, module, builder, transform, make):
    original, calls = getattr(module, builder), []

    def fails_once(obj):
        calls.append(obj)
        if len(calls) == 1:
            raise RuntimeError("first call fails")
        return original(obj)

    monkeypatch.setattr(module, builder, fails_once)
    obj = make()
    with pytest.raises(RuntimeError):
        transform(obj)
    assert not obj._kept
    result = transform(obj)
    assert transform(obj) is result and len(calls) == 2


def rendered(f) -> list[str]:
    """The JSON of the conjugate, biconjugate and prox(1) of f."""
    return [json.dumps(function_to_json(conjugate(f))), json.dumps(function_to_json(biconjugate(f))),
            json.dumps(operator_to_json(prox(f, 1)))]


@settings(max_examples=25, deadline=None)
@given(plq_functions())
def test_a_warmed_object_renders_as_a_fresh_one(case):
    text, _ = case
    warm = parse_pwf(text, ENV)
    subdifferential(warm)
    biconjugate(warm)
    prox(warm, 2)
    assert rendered(warm) == rendered(parse_pwf(text, ENV))
