"""Golden outputs: rendered text and JSON of parse -> subdiff -> conj ->
biconj -> prox(1) on the corpus, against tests/golden_corpus.txt.

The comparison is exact except for floating-point numbers, which may
differ within a relative 1e-12 (their last printed digits follow the
order of float operations).  After a change that is meant to alter an
output, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_corpus.txt

and review its diff.

The numeric nodes those outputs print (bisection inverses and quadrature
integrals) are also evaluated: ``eval_op`` of prox(1) and ``eval_pwf``
of conj at NUMERIC_POINTS, against tests/golden_evals.txt by exact
``repr``, so a change to the float evaluator that moves a single bit
shows.  Regenerate that file with

    PYTHONPATH=src python tests/test_golden.py evals > tests/golden_evals.txt
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
    eval_op,
    eval_pwf,
    function_to_json,
    operator_to_json,
    parse_pwf,
    prox,
    render_function,
    render_operator,
    subdifferential,
)

GOLDEN = Path(__file__).with_name("golden_corpus.txt")
GOLDEN_EVALS = Path(__file__).with_name("golden_evals.txt")
NUMERIC_POINTS = (-2.0, -0.5, 0.25, 1.0, 3.0)
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


def render_numeric_evals() -> str:
    """Values at NUMERIC_POINTS of prox(1) and conj of each corpus input
    whose prox or conj prints a bisection or quadrature node."""
    out = []
    for name, text in CORPUS_TEXTS.items():
        f = parse_pwf(text, AssumptionEnv.empty())
        p, c = prox(f, 1), conjugate(f)
        if not re.search(r"inverse\[|integral\[", render_operator(p) + render_function(c)):
            continue
        for x in NUMERIC_POINTS:
            v = eval_op(p, x)
            shown = repr(float(v.lo.value)) if v.tag == "point" else str(v)
            out.append(f"{name} prox {x!r} {shown}")
            out.append(f"{name} conj {x!r} {float(eval_pwf(c, x))!r}")
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


def test_numeric_node_values_match_bit_for_bit():
    assert render_numeric_evals() == GOLDEN_EVALS.read_text()


def test_float_tokens_compare_within_the_tolerance():
    assert mismatch("y -> 0.69314718055994529 + x/3", "y -> 0.69314718055994540 + x/3") is None
    assert mismatch("y -> 0.69314718055994529", "y -> 0.69314718") is not None
    assert mismatch("y -> 2*x", "y -> 3*x") is not None
    assert mismatch("y -> 2", "y -> 2.0000000000000004") is None


if __name__ == "__main__":
    sys.stdout.write(render_numeric_evals() if sys.argv[1:] == ["evals"] else render_corpus())
