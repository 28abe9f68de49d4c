"""Shared fixtures: the function corpus used by the closure suites.

The corpus spans every piece kind the toolkit supports: kinks, flats,
indicator walls, strictly convex interiors, and affine tails.
"""

from __future__ import annotations

import pytest

from pwconvex import AssumptionEnv, parse_pwf

# name -> DSL text; all in the variable x
CORPUS_TEXTS = {
    "abs": "abs(x)",
    "square": "x^2/2",
    "quartic": "x^4",
    "box": "pw{ x < -1 -> inf ; -1 <= x & x <= 2 -> 0 ; x > 2 -> inf }",
    "log_barrier": "pw{ x <= 0 -> inf ; x > 0 -> -ln(x) }",
    "exp": "exp(x)",
    "pw_affine": "pw{ x < -1 -> -2*x - 1 ; -1 <= x & x < 0 -> -x ; 0 <= x & x < 2 -> x ; x >= 2 -> 3*x - 4 }",
    "relu": "pw{ x < 0 -> 0 ; x >= 0 -> x }",
    "huber": "pw{ x < -1 -> -x - 1/2 ; -1 <= x & x <= 1 -> x^2/2 ; x > 1 -> x - 1/2 }",
    "exp_affine_tail": "pw{ x < 0 -> 1 - x ; x >= 0 -> exp(x) - 2*x }",
    "unpeelable": "x^4 + 3/2*x^2",
}


@pytest.fixture(scope="session")
def corpus():
    env = AssumptionEnv.empty()
    return {name: parse_pwf(text, env) for name, text in CORPUS_TEXTS.items()}
