"""Golden outputs: rendered text and JSON of parse -> subdiff -> conj ->
biconj -> prox(1) on the corpus, against tests/golden_corpus.txt.

The comparison is exact except for floating-point numbers, which may
differ within a relative 1e-12 (their last printed digits follow the
order of float operations).  After a change that is meant to alter an
output, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_corpus.txt

and review its diff.
"""

import json
import math
import re
import sys
from pathlib import Path

from conftest import CORPUS_TEXTS

from pwconvex import (
    AssumptionEnv,
    biconjugate,
    conjugate,
    function_to_json,
    operator_to_json,
    parse_pwf,
    prox,
    render_function,
    render_operator,
    subdifferential,
)

GOLDEN = Path(__file__).with_name("golden_corpus.txt")
NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
FLOAT_REL_TOL = 1e-12


def render_corpus() -> str:
    out = []
    for name, text in CORPUS_TEXTS.items():
        f = parse_pwf(text, AssumptionEnv.empty())
        stages = [("parse", f), ("subdiff", subdifferential(f)), ("conj", conjugate(f)),
                  ("biconj", biconjugate(f)), ("prox", prox(f, 1))]
        for stage, obj in stages:
            if stage in ("subdiff", "prox"):
                shown, doc = render_operator(obj), operator_to_json(obj)
            else:
                shown, doc = render_function(obj), function_to_json(obj)
            out += [f"== {name} {stage}", shown, json.dumps(doc)]
    return "\n".join(out) + "\n"


def same_numbers(a: str, b: str) -> bool:
    """Equal tokens, or two floats within FLOAT_REL_TOL of each other."""
    if a == b:
        return True
    if not any(c in a + b for c in ".eE"):
        return False
    return math.isclose(float(a), float(b), rel_tol=FLOAT_REL_TOL, abs_tol=0.0)


def mismatch(expected: str, actual: str) -> str | None:
    """The first line where actual differs from expected, or None."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return f"{len(act_lines)} lines, expected {len(exp_lines)}"
    for n, (e, a) in enumerate(zip(exp_lines, act_lines), 1):
        if NUMBER.split(e) != NUMBER.split(a):
            return f"line {n}: {a!r}, expected {e!r}"
        if not all(same_numbers(x, y) for x, y in zip(NUMBER.findall(e), NUMBER.findall(a))):
            return f"line {n}: {a!r}, expected {e!r}"
    return None


def test_corpus_outputs_match_the_golden_file():
    assert mismatch(GOLDEN.read_text(), render_corpus()) is None


def test_float_tokens_compare_within_the_tolerance():
    assert mismatch("y -> 0.69314718055994529 + x/3", "y -> 0.69314718055994540 + x/3") is None
    assert mismatch("y -> 0.69314718055994529", "y -> 0.69314718") is not None
    assert mismatch("y -> 2*x", "y -> 3*x") is not None
    assert mismatch("y -> 2", "y -> 2.0000000000000004") is None


if __name__ == "__main__":
    sys.stdout.write(render_corpus())
