"""CLI contract: exit 0 on success, 2 for bad input, 3 for internal
failures, and one error line on stderr instead of a traceback."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pwconvex
from pwconvex import cli
from pwconvex.errors import InternalInconsistency

SIGN = "sd{ x < 0 -> {-1} ; x = 0 -> [-1, 1] ; x > 0 -> {1} }"
HARD_THRESHOLD = (
    "sd{ x < -1 -> {x} ; x = -1 -> {-1, 0} ; -1 < x & x < 1 -> {0} ;"
    " x = 1 -> {0, 1} ; x > 1 -> {x} }"
)
SOFT_THRESHOLD = "sd{ x < -1 -> {x + 1} ; -1 <= x & x <= 1 -> {0} ; x > 1 -> {x - 1} }"
UNIFORM = "pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> x ; x >= 1 -> 1 }"
WALL = "pw{ x < l -> inf ; x >= l -> x^2 }"

SUBCOMMANDS = {
    "subdiff": ["subdiff", "abs(x)"],
    "conj": ["conj", "x^2/2"],
    "biconj": ["biconj", "pw{ x < -1 -> -x - 1/2 ; -1 <= x & x <= 1 -> x^2/2 ; x > 1 -> x - 1/2 }"],
    "prox": ["prox", "abs(x)", "--at", "3"],
    "invert": ["invert", SIGN],
    "resolvent": ["resolvent", SIGN],
    "extend": ["extend", "sd{ x < 0 -> empty ; x = 0 -> {0} ; x > 0 -> empty }"],
    "penalty": ["penalty", HARD_THRESHOLD],
    "verify": ["verify", SOFT_THRESHOLD, "abs(x)"],
    "eval": ["eval", "x^2", "--at", "3"],
    "risk": ["risk", "--cdf", UNIFORM, "superq", "1/2"],
}


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_subcommand_succeeds(capsys, name):
    code, out, err = run(capsys, SUBCOMMANDS[name])
    assert code == 0, err
    assert out.strip() and not err


def test_eval_and_prox_values(capsys):
    assert run(capsys, SUBCOMMANDS["eval"])[1].strip() == "9"
    assert run(capsys, SUBCOMMANDS["prox"])[1].strip() == "{2}"


@pytest.mark.parametrize(
    "argv, kind, var", [(["subdiff", "abs(x)", "--json"], "op", "x"), (["conj", "abs(x)", "--json"], "pwf", "y")]
)
def test_json_schema(capsys, argv, kind, var):
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert {"kind", "var", "breakpoints", "pieces", "at_breakpoints"} <= set(doc)
    assert doc["kind"] == kind and doc["var"] == var
    assert len(doc["pieces"]) == len(doc["breakpoints"]) + 1 == len(doc["at_breakpoints"]) + 1


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, ["eval", "x +", "--at", "1"])
    assert code == 2 and not out
    assert err.startswith("error[ParseError]")


def test_internal_failure_exits_3(capsys, monkeypatch):
    def broken(f):
        raise InternalInconsistency("derived contradictory structure")

    monkeypatch.setattr(cli, "conjugate", broken)
    code, out, err = run(capsys, ["conj", "abs(x)"])
    assert code == 3 and not out
    assert err.strip() == "error[InternalInconsistency]: derived contradictory structure"


def test_unclassified_fault_exits_3(capsys, monkeypatch):
    def broken(f):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "subdifferential", broken)
    code, _, err = run(capsys, ["subdiff", "abs(x)"])
    assert code == 3
    assert err.startswith("error[ZeroDivisionError]")


def test_param_binding_must_satisfy_assumptions(capsys):
    code, out, err = run(capsys, ["eval", WALL, "--assume", "0 < l", "--param", "l=-1", "--at", "0"])
    assert code == 2 and not out
    assert "violates the assumptions" in err
    code, out, _ = run(capsys, ["eval", WALL, "--assume", "0 < l", "--param", "l=1/2", "--at", "1"])
    assert code == 0 and out.strip() == "1"


def test_prox_of_a_wall_honours_the_bound_parameter(capsys):
    # the implicit inverse keeps its bound l exact instead of its value at
    # the feasible point (l = 1), so the bisection runs on (1/10, inf)
    argv = ["prox", "pw{ x < l -> inf ; x >= l -> x^4 }", "--assume", "0 < l", "--at", "1", "--param", "l=1/10"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert float(out.strip().strip("{}")) == pytest.approx(0.5, abs=1e-9)


def test_quantile_through_an_implicit_inverse_is_a_number(capsys):
    # the CDF 1 - exp(-x)*(1 + x) has no closed-form inverse; the quantile
    # reads the bisection-backed inverse at p instead of returning it unread
    argv = ["risk", "--cdf", "pw{ x < 0 -> 0 ; x >= 0 -> 1 - exp(0 - x)*(1 + x) }", "quantile", "1/2"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert float(out) == pytest.approx(1.6783469900, abs=1e-9)


HARD_THRESHOLD_PENALTY = (
    "pw{ x < -1 -> 0 ; -1 <= x & x < 0 -> -1/2 - x - x^2/2 ;"
    " 0 <= x & x <= 1 -> -1/2 + x - x^2/2 ; x > 1 -> 0 }"
)


def test_verify_takes_a_weakly_convex_penalty(capsys):
    # the penalty the hard threshold recovers is only weakly convex
    # (f + x^2/2 is convex); verify takes it as verify_penalty does
    code, out, err = run(capsys, ["verify", HARD_THRESHOLD, HARD_THRESHOLD_PENALTY])
    assert code == 0, err
    assert out.startswith("verification passed")
    # a candidate that stays nonconvex after adding x^2/2 still fails
    code, out, err = run(capsys, ["verify", HARD_THRESHOLD, "0 - x^2"])
    assert code == 2 and "not convex" in out


SMOOTH_ABS = "(1 + x^2)^(1/2)"


def test_a_slope_that_flattens_out_is_monotone(capsys):
    # x*(1 + x^2)^(-1/2) rounds to -1 and +1 far out, where the samples
    # wobble in the last ulp; those differences are ties, not decreases
    code, out, err = run(capsys, ["subdiff", SMOOTH_ABS])
    assert code == 0, err
    assert out.strip() == "x  ->  {x*(1 + x^2)^(-1/2)}"


def test_prox_of_a_slope_that_flattens_out(capsys):
    code, out, err = run(capsys, ["prox", SMOOTH_ABS, "--at", "2"])
    assert code == 0, err
    # the root of p + p/sqrt(1 + p^2) = 2, by bisection on [0, 2]
    lo, hi = 0.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid + mid / math.sqrt(1 + mid * mid) < 2 else (lo, mid)
    assert float(out.strip().strip("{}")) == pytest.approx(lo, rel=1e-12, abs=0.0)


ENTROPY_FORMS = ("pw{ x < 0 -> inf ; x = 0 -> 0 ; x > 0 -> x*ln(x) - x }",
                 "pw{ x < 0 -> inf ; x >= 0 -> x*ln(x) - x }")


@pytest.mark.parametrize("entropy", ENTROPY_FORMS)
def test_prox_of_the_entropy(capsys, entropy):
    # the prox inverts t + ln(t) on (0, inf); building it reads the inverse
    # at targets whose root lies within the tolerance of the open end 0
    code, out, err = run(capsys, ["prox", entropy, "--at", "1"])
    assert code == 0, err
    assert float(out.strip().strip("{}")) == pytest.approx(1.0, rel=0.0, abs=1e-13)
    code, out, err = run(capsys, ["prox", entropy, "--at", "-3"])
    assert code == 0, err
    # the root of t + ln(t) = -3, by bisection on [1/1000, 1]
    lo, hi = 1e-3, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid + math.log(mid) < -3 else (lo, mid)
    assert lo == pytest.approx(0.0474784910248, abs=1e-13)
    assert float(out.strip().strip("{}")) == pytest.approx(lo, rel=1e-13, abs=0.0)


def test_a_true_decrease_is_not_a_tie(capsys):
    # x^3 - 3*x falls on (-1, 1), by far more than a few ulps
    cubic = "sd{ x < -2 -> {x} ; x = -2 -> {-2} ; -2 < x & x < 2 -> {x^3 - 3*x} ; x = 2 -> {2} ; x > 2 -> {x} }"
    code, out, err = run(capsys, ["invert", cubic])
    assert code == 2 and not out
    assert err.startswith("error[NotMonotone]")


def test_param_binding_checks_unbound_parameters_too(capsys):
    facts = ["--assume", "0 < l", "--assume", "l < a", "--assume", "a < 2"]
    argv = ["eval", WALL, *facts, "--param", "l=3", "--at", "4"]
    code, _, err = run(capsys, argv)
    assert code == 2 and "violates the assumptions" in err


def test_deep_input_is_a_parse_error(capsys):
    code, out, err = run(capsys, ["eval", "+".join(["x"] * 3000), "--at", "1"])
    assert code == 2 and not out
    assert err.startswith("error[ParseError]")


def test_deeply_nested_parentheses_are_a_parse_error(capsys):
    code, _, err = run(capsys, ["eval", "(" * 3000 + "x" + ")" * 3000, "--at", "1"])
    assert code == 2
    assert err.startswith("error[ParseError]")


NUMPY_BLOCKED = """
import json, sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, BlockNumpy())
from pwconvex import cli, conjugate, eval_pwf, parse_pwf

codes = {name: cli.main(argv) for name, argv in json.loads(sys.argv[1]).items()}
quadrature = eval_pwf(conjugate(parse_pwf("exp(x) + x^2")), 1.0)
print(json.dumps({"codes": codes, "quadrature": quadrature}))
"""


def test_every_subcommand_runs_without_numpy():
    # the declared dependencies are complete: nothing imports numpy, not
    # even the quadrature behind a conjugate with no closed form
    src = str(Path(pwconvex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-c", NUMPY_BLOCKED, json.dumps(SUBCOMMANDS)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert out.returncode == 0 and "Traceback" not in out.stderr, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == dict.fromkeys(SUBCOMMANDS, 0)
    assert result["quadrature"] == pytest.approx(-1.0, abs=1e-12)
