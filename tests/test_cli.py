"""CLI contract: exit 0 on success, 2 for bad input, 3 for internal
failures, and one error line on stderr instead of a traceback."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pwconvex
from pwconvex import AssumptionEnv, DistributionSpec, cli, eval_pwf, render_function, superexpectation_conjugate
from pwconvex.errors import InternalInconsistency
from pwconvex.pwf import build_function, parse_piecewise_map

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
    "text, want", [("(3^80)^(1/2)", 3**40), ("(10^400)^(1/2)", 10**200), ("(2^300)^(1/3)", 2**100)]
)
def test_eval_takes_exact_roots_of_huge_integers(capsys, text, want):
    code, out, err = run(capsys, ["eval", text, "--at", "1"])
    assert code == 0, err
    assert out.strip() == str(want)


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


def test_prox_of_a_wall_with_a_parametric_step(capsys):
    argv = ["prox", "pw{ x < a -> inf ; x >= a -> x^2/2 }", "--assume", "0 < a", "--assume", "0 < l",
            "--lambda", "l", "--param", "a=1", "--param", "l=2", "--at", "3"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out.strip() == "{1}"


def test_a_step_with_the_variable_is_bad_input(capsys):
    # rejected as such, not as a comparison of x against 0
    code, out, err = run(capsys, ["prox", "x^2", "--lambda", "x"])
    assert code == 2 and not out
    assert err.strip() == "error[InputError]: scalar x must not contain the variable"


def test_quantile_through_an_implicit_inverse_is_a_number(capsys):
    # the CDF 1 - exp(-x)*(1 + x) has no closed-form inverse; the quantile
    # reads the bisection-backed inverse at p instead of returning it unread
    argv = ["risk", "--cdf", "pw{ x < 0 -> 0 ; x >= 0 -> 1 - exp(0 - x)*(1 + x) }", "quantile", "1/2"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert float(out) == pytest.approx(1.6783469900, abs=1e-9)


@pytest.mark.parametrize("q", ["p^2 - p", "1 - p"])
def test_a_quantile_that_is_not_monotone_is_bad_input(capsys, q):
    code, out, err = run(capsys, ["risk", "--quantile", q, "quantile", "1/4"])
    assert code == 2 and not out
    assert err.startswith("error[NotMonotone]")


def rows(text):
    """The rows of a rendered function or operator, spacing collapsed."""
    return [" ".join(line.split()) for line in text.strip().splitlines()]


def test_superexpectation_and_superdistribution_of_the_uniform(capsys):
    # E(x) = E[max(x, X)] for X uniform on [0, 1], and its derivative, the CDF
    code, out, err = run(capsys, ["risk", "--cdf", UNIFORM, "superexp"])
    assert code == 0, err
    assert rows(out) == ["x < 0 -> 1/2", "x = 0 -> 1/2", "0 < x < 1 -> 1/2 + x^2/2", "x = 1 -> 1", "x > 1 -> x"]
    code, out, err = run(capsys, ["risk", "--cdf", UNIFORM, "superdist"])
    assert code == 0, err
    assert rows(out) == ["x < 0 -> {0}", "x = 0 -> {0}", "0 < x < 1 -> {x}", "x = 1 -> {1}", "x > 1 -> {1}"]


SEPARABLE = "abs(x) ;; x^2/2"


def test_separable_input(capsys):
    code, out, err = run(capsys, ["conj", SEPARABLE])
    assert code == 0, err
    box, half_square = out.split("\n;;\n")
    assert rows(box) == ["y < -1 -> inf", "y = -1 -> 0", "-1 < y < 1 -> 0", "y = 1 -> 0", "y > 1 -> inf"]
    assert rows(half_square) == ["y -> y^2/2"]
    assert run(capsys, ["prox", SEPARABLE, "--at", "3, 1"])[1].strip() == "({2}, {1/2})"
    assert run(capsys, ["eval", SEPARABLE, "--at", "-2, 1"])[1].strip() == "5/2"
    code, out, err = run(capsys, ["eval", SEPARABLE, "--at", "-2"])
    assert code == 2 and not out
    assert err.startswith("error[InputError]: point has 1 coordinates")


@pytest.mark.parametrize("op, want", [("sd{ x < 0 -> {x - 1} ; x > 0 -> {x + 1} }", "[-1, 1]"),
                                      ("sd{ x < 0 -> empty ; x > 0 -> {x} }", "{0}")])
def test_operator_closure_at_an_omitted_breakpoint(capsys, op, want):
    # no guard covers 0: the value there closes the graph between the
    # one-sided limits of the pieces beside it
    code, out, err = run(capsys, ["eval", op, "--at", "0"])
    assert code == 0, err
    assert out.strip() == want


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


def test_the_recovered_penalty_is_in_the_operator_variable(capsys):
    code, out, err = run(capsys, ["penalty", HARD_THRESHOLD])
    assert code == 0, err
    assert rows(out) == ["x < -1 -> 0", "x = -1 -> 0", "-1 < x < 0 -> -1/2 - x - x^2/2", "x = 0 -> -1/2",
                         "0 < x < 1 -> -1/2 + x - x^2/2", "x = 1 -> 0", "x > 1 -> 0"]
    env = AssumptionEnv.empty()
    f = build_function(*parse_piecewise_map(HARD_THRESHOLD_PENALTY, env), env, weakly_convex=True)
    assert rows(out) == rows(render_function(f))


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


@pytest.mark.parametrize("command", ["invert", "extend"])
def test_a_degenerate_image_is_bad_input(capsys, command):
    # y*exp(-y^2/2) falls on (1, inf), far from the sampled nodes, so its
    # certificate passes; its equal end limits show it is not strictly increasing
    code, out, err = run(capsys, [command, "sd{ y < 0 -> {y} ; y = 0 -> {0} ; y > 0 -> {exp(0-y^2/2)*y} }"])
    assert code == 2 and not out
    assert err.startswith("error[NotMonotone]")
    assert re.search(r"\by\b", err) and not re.search(r"\bx\b", err)


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


@pytest.mark.parametrize("argv, kind", [
    (["subdiff", "x^4 - x^2"], "NonConvex"),  # f'' = 12x^2 - 2 < 0 near 0
    (["invert", "x^3 - 3*x"], "NotMonotone"),  # falls on (-1, 1)
    (["invert", "x^3 - x/1000"], "NotMonotone"),  # falls on (-0.019, 0.019)
])
def test_a_polynomial_that_fails_between_samples_is_rejected(capsys, argv, kind):
    code, out, err = run(capsys, argv)
    assert code == 2 and not out
    assert err.startswith(f"error[{kind}]")


@pytest.mark.parametrize("text", [
    "x^4",  # f'' = 12x^2 is 0 at 0 only
    "x^6 + x^2/2",
    "pw{ x < 0 -> inf ; x >= 0 -> x^4/4 + x^3 }",  # f'' = 3x^2 + 6x, 0 at the closed end
])
def test_a_polynomial_convex_but_for_isolated_flat_points_is_accepted(capsys, text):
    code, out, err = run(capsys, ["subdiff", text])
    assert code == 0, err


@pytest.mark.parametrize("q", ["p^2 - p", "1 - p", "exp(4*p - 4*p^2)"])
def test_a_quantile_message_names_its_own_variable(capsys, q):
    # exact (p^2 - p), exact decreasing (1 - p) and sampled (exp) tiers
    code, _, err = run(capsys, ["risk", "--quantile", q, "quantile", "1/4"])
    assert code == 2 and err.startswith("error[NotMonotone]")
    assert re.search(r"\bp\b", err) and not re.search(r"\bx\b", err)


@pytest.mark.parametrize("text", ["pw{ y < 0 -> inf ; y >= 0 -> y^3 - y^2 }", "pw{ y < 0 -> inf ; y >= 0 -> 0 - exp(y) }"])
def test_a_convexity_message_names_its_own_variable(capsys, text):
    code, _, err = run(capsys, ["subdiff", text])
    assert code == 2 and err.startswith("error[NonConvex]")
    assert re.search(r"\by\b", err) and not re.search(r"\bx\b", err)


@pytest.mark.parametrize("argv, var", [(["subdiff", "abs(y^2 - 1)"], "y"),
                                       (["risk", "--quantile", "p + abs(p^3 - 1/8)", "quantile", "1/4"], "p")])
def test_an_abs_message_names_its_own_variable(capsys, argv, var):
    code, _, err = run(capsys, argv)
    assert code == 2 and err.startswith("error[InputError]")
    assert re.search(rf"\b{var}\b", err) and not re.search(r"\bx\b", err)


@pytest.mark.parametrize("argv", [["subdiff"], ["conj"], ["prox", "--at", "1"]])
def test_a_function_that_is_inf_everywhere_is_bad_input(capsys, argv):
    code, out, err = run(capsys, [argv[0], "pw{ x < 0 -> inf ; x >= 0 -> inf }", *argv[1:]])
    assert code == 2 and not out
    assert err.startswith("error[InputError]")


@pytest.mark.parametrize("text", ["pw{ x <= 5 -> x^4 + x^2 ; x > 5 -> inf }",
                                  "pw{ x < -5 -> inf ; x >= -5 -> x^4 + x^2 }"])
def test_an_implicit_inverse_on_a_half_line_is_bracketed(capsys, text):
    # the solver must step toward an infinite end from the far side of 0
    code, _, err = run(capsys, ["conj", text])
    assert code == 0, err


FLOAT_CONSTANT = re.compile(r"\d\.\d")
EXACT_ANCHORS = {
    # f* is exactly 4 at 6 and 5 at 7; each numeric piece is based at its cell's finite end
    "pw{ x < 1 -> x^4 + x^2 ; x >= 1 -> x^4 + x^2 + x - 1 }": [
        "y < 6 -> 4 + integral[inverse[t -> 2*t + 4*t^3](y); from 6]",
        "y = 6 -> 4",
        "6 < y < 7 -> -2 + y",
        "y = 7 -> 5",
        "y > 7 -> 5 + integral[inverse[t -> 1 + 2*t + 4*t^3](y); from 7]",
    ],
    # the value at the wall's image 510 is f*(510) = 5*510 - f(5), not a float read of the piece
    "pw{ x <= 5 -> x^4 + x^2 ; x > 5 -> inf }": [
        "y < 510 -> 1900 + integral[inverse[t -> 2*t + 4*t^3](y); from 510]",
        "y = 510 -> 1900",
        "y > 510 -> -650 + 5*y",
    ],
    "pw{ x < 0 -> x^4 + x^2 ; x >= 0 -> x^4 + x^2 + x }": [
        "y < 0 -> integral[inverse[t -> 2*t + 4*t^3](y); from 0]",
        "y = 0 -> 0",
        "0 < y < 1 -> 0",
        "y = 1 -> 0",
        "y > 1 -> integral[inverse[t -> 1 + 2*t + 4*t^3](y); from 1]",
    ],
}


@pytest.mark.parametrize("text", sorted(EXACT_ANCHORS))
def test_a_numeric_piece_is_exact_at_its_anchor(capsys, text):
    code, out, err = run(capsys, ["conj", text])
    assert code == 0, err
    assert rows(out) == EXACT_ANCHORS[text]
    assert not FLOAT_CONSTANT.search(out)


def test_a_forward_map_with_a_finite_asymptote_is_not_an_internal_failure(capsys):
    # ROADMAP 2k: the forward map g of the inverse tends to -5 at -inf.
    # The limit at g(-6) is now exact (-6), where a probe failed to
    # bracket its solves (exit 3).  The input is convex, so exit 2 (the
    # value at -5 reads above its probed limit) is still a defect
    code, out, err = run(capsys, ["conj", "pw{ x <= -6 -> -4*x + 1 + (x^2 + 1)^(1/2) ; x > -6 -> inf }"])
    assert code == 2 and not out
    assert err.startswith("error[NotLsc]")


# absolute values split their branch at each root inside it; a root at a
# region end is no cut.  Functions, operators and quantile functions
# follow one grammar: the argument of an abs is affine, and an abs holds
# no abs.  argv -> (exit code, rendered rows or error class)
FLAT_THEN_RISING = "sd{ x <= 0 -> {x} ; x > 0 -> {x + abs(x - 1)} }"
ABS_SPLITS = {
    ("subdiff", "abs(x) + abs(x - 1)"): (0, [
        "x < 0 -> {-2}", "x = 0 -> [-2, 0]", "0 < x < 1 -> {0}", "x = 1 -> [0, 2]", "x > 1 -> {2}"]),
    # two nodes with one root, one of them with a negative slope
    ("subdiff", "abs(2 - x) + abs(2*x - 4)"): (0, ["x < 2 -> {-3}", "x = 2 -> [-3, 3]", "x > 2 -> {3}"]),
    ("conj", "pw{ x < 0 -> inf ; x >= 0 -> abs(x - 1) + x^2 }"): (0, [
        "y < -1 -> -1", "y = -1 -> -1", "-1 < y < 1 -> -3/4 + y/2 + y^2/4", "y = 1 -> 0",
        "1 < y < 3 -> -1 + y", "y = 3 -> 2", "y > 3 -> 5/4 - y/2 + y^2/4"]),
    ("subdiff", "pw{ x < 1 -> abs(x - 1) ; x >= 1 -> 2*x - 2 }"): (0, [
        "x < 1 -> {-1}", "x = 1 -> [-1, 2]", "x > 1 -> {2}"]),
    ("subdiff", "abs(x - a) + abs(x)", "--assume", "0 < a"): (0, [
        "x < 0 -> {-2}", "x = 0 -> [-2, 0]", "0 < x < a -> {0}", "x = a -> [0, 2]", "x > a -> {2}"]),
    ("subdiff", "abs(l*x)", "--assume", "0 < l"): (0, ["x < 0 -> {-l}", "x = 0 -> [-l, l]", "x > 0 -> {l}"]),
    ("subdiff", "abs(l*x - 1)"): (2, "UndecidableComparison"),
    ("subdiff", "abs(abs(x) - 1)"): (2, "InputError"),
    ("subdiff", "abs(x^2 - 1)"): (2, "InputError"),
    ("prox", "abs(x) + abs(x - 1)", "--at", "1/2"): (0, ["{1/2}"]),
    ("eval", "pw{ x <= 0 -> abs(x + 1) ; x > 0 -> 1 + abs(x - 1) - abs(x - 1) + x }", "--at", "-1"): (0, ["0"]),
    ("eval", "abs(x) + abs(x - 1)", "--at", "1"): (0, ["1"]),
    # an operator body is flat where the slope of its abs cancels its own
    ("invert", "x + abs(x)"): (0, ["y < 0 -> empty", "y = 0 -> [-inf, 0]", "y > 0 -> {y/2}"]),
    ("invert", FLAT_THEN_RISING): (0, [
        "y < 0 -> {y}", "y = 0 -> {0}", "0 < y < 1 -> empty", "y = 1 -> [0, 1]", "y > 1 -> {1/2 + y/2}"]),
    ("resolvent", "x + abs(x)"): (0, ["y < 0 -> {y}", "y = 0 -> {0}", "y > 0 -> {y/3}"]),
    # the conjugate of F = integral of the operator, less y^2/2
    ("penalty", FLAT_THEN_RISING): (0, [
        "x < 0 -> 0", "x = 0 -> 0", "0 < x < 1 -> -(x^2/2)", "x = 1 -> -1/2", "x > 1 -> -3/4 + x/2 - x^2/4"]),
    ("invert", "x^3 + x + abs(x^3)"): (2, "InputError"),
    ("invert", "2*x + abs(abs(x) - 1)"): (2, "InputError"),
    # an atom of 1/2 at 1/2 and a uniform law of density 1/2 on (1/2, 3/2)
    ("risk", "--quantile", "p + abs(p - 1/2)", "superexp"): (0, [
        "x < 1/2 -> 3/4", "x = 1/2 -> 3/4", "1/2 < x < 3/2 -> 9/16 + x/4 + x^2/4", "x = 3/2 -> 3/2", "x > 3/2 -> x"]),
    ("risk", "--quantile", "p + abs(p - 1/2)", "quantile", "1/4"): (0, ["1/2"]),
    ("risk", "--quantile", "p + abs(p - 1/2)", "superq", "1/4"): (0, ["5/6"]),
    ("risk", "--quantile", "p + abs(p^3 - 1/8)", "superq", "1/4"): (2, "InputError"),
}


@pytest.mark.parametrize("argv", sorted(ABS_SPLITS))
def test_absolute_values_split_at_their_roots(capsys, argv):
    want_code, want = ABS_SPLITS[argv]
    code, out, err = run(capsys, list(argv))
    assert code == want_code, err
    if code == 0:
        assert rows(out) == want
    else:
        assert not out and err.startswith(f"error[{want}]")


# ROADMAP 2m and 2n: both conjugates need exact limits at +-inf of
# exp-log bodies (item 14).  Until then they are refused, where softplus
# conj exited 0 with a wrong domain; after item 14 they must be exact
@pytest.mark.parametrize("text", ["ln(1 + exp(x))", "ln(exp(x) + exp(0 - x))"])
def test_an_exp_log_conjugate_is_refused_not_wrong(capsys, text):
    code, out, err = run(capsys, ["subdiff", text])
    assert code == 0, err
    code, out, err = run(capsys, ["conj", text])
    assert code == 2 and not out


def test_a_reader_that_leaves_early_is_not_a_failure():
    # `pwconvex ... | head -c 0`: the read end of stdout is closed before
    # the result is printed, which must still exit 0 without a traceback
    src = str(Path(pwconvex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = [sys.executable, "-m", "pwconvex.cli", "subdiff", "abs(x) + abs(x - 1)"]
        out = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr


# a flat of the distribution function is reached through the breakpoint
# in front of it, which holds the flat's level
FLAT_LAWS = {
    ("pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> x/2 ; 1 <= x & x < 2 -> 1/2 ; 2 <= x & x < 3 -> x/2 - 1/2 ;"
     " x >= 3 -> 1 }", "quantile"): "1",
    ("pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> x/2 ; 1 <= x & x < 2 -> 1/2 ; 2 <= x & x < 3 -> x/2 - 1/2 ;"
     " x >= 3 -> 1 }", "superq"): "5/2",
    ("pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> 1/2 ; x >= 1 -> 1 }", "quantile"): "0",
}


@pytest.mark.parametrize("cdf, query", sorted(FLAT_LAWS))
def test_the_quantile_at_the_level_of_a_flat_is_its_left_end(capsys, cdf, query):
    code, out, err = run(capsys, ["risk", "--cdf", cdf, query, "1/2"])
    assert code == 0, err
    assert rows(out) == [FLAT_LAWS[cdf, query]]


CUBIC_CDF = "pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> x^3/2 + x/2 ; x >= 1 -> 1 }"


def test_the_superquantile_of_a_cubic_distribution_function(capsys):
    # ROADMAP 2b's risk repro: the conjugate route rejected it with NotLsc
    argv = ["risk", "--cdf", CUBIC_CDF, "superq", "1/3"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert out.startswith("0.792601694464")


def test_the_conjugate_route_of_a_cubic_distribution_function():
    # the same law through the secant -E*(p)/(1 - p) of the conjugate of E:
    # E*'s value at the far end of its implicit-inverse piece is a float,
    # which meets the limit there within the band of numeric.order
    d = DistributionSpec.from_cdf(CUBIC_CDF, AssumptionEnv.empty())
    p = Fraction(1, 3)
    assert -eval_pwf(superexpectation_conjugate(d), p) / (1 - p) == 0.79260169446435946


# values at cell ends read as floats (a NumericIntegral at the far end of
# its cell) are equal to their limits within the REL_TOL band of
# numeric.order; a value off by more is still refused
P2_P3 = "p^2 + p^3"
X4_WALLS = ("pw{ x < 0 -> inf ; 0 <= x & x < 1 -> x^4 - x + 1/2 ; 1 <= x & x <= 2 -> x^4 + 2*x^2 - 5*x + 5/2 ;"
            " x > 2 -> inf }")


def test_a_float_value_at_a_cell_end_meets_its_limit(capsys):
    # the law of p^2 + p^3 on [0, 2]: E(2) = 2 is the float 17/12 of the
    # integral at its far end plus the limit of the last piece
    code, out, err = run(capsys, ["risk", "--quantile", P2_P3, "superexp"])
    assert code == 0, err
    assert "x = 2 -> 2" in rows(out)
    # (1/(1 - p)) * int_p^1 (t^2 + t^3) dt at p = 1/4
    code, out, err = run(capsys, ["risk", "--quantile", P2_P3, "superq", "1/4"])
    assert code == 0, err
    assert abs(float(out) - 197 / 256) <= 1e-15
    code, out, err = run(capsys, ["conj", X4_WALLS])
    assert code == 0, err
    assert "y = 35 -> 53.5" in rows(out)


@pytest.mark.parametrize("text", [SMOOTH_ABS, "pw{ x <= -6 -> -4*x + 1 + (x^2 + 1)^(1/2) ; x > -6 -> inf }"])
def test_a_value_off_by_more_than_the_band_is_still_refused(capsys, text):
    # f*(+-1) of (1 + x^2)^(1/2) reads -4.2e-4 for 0, and f*(-5) of ROADMAP
    # 2k's wall -1 - 7e-5 for -1: values read by quadrature where the
    # inverse runs off to infinity, far outside the band
    code, out, err = run(capsys, ["conj", text])
    assert code == 2 and not out
    assert err.startswith("error[NotLsc]")


# an abs of a parameter is a constant of the variable: the prox of
# 2*x^2 at 1 is 1/(1 + 4)
ABS_PARAMETER = {
    ("subdiff", "abs(a)*x^2", "--assume", "0 < a"): ["x -> {2*x*abs(a)}"],
    ("prox", "abs(a)*x^2", "--assume", "0 < a", "--at", "1", "--param", "a=2"): ["{1/5}"],
}


@pytest.mark.parametrize("argv", sorted(ABS_PARAMETER))
def test_an_abs_of_a_parameter_is_a_constant(capsys, argv):
    code, out, err = run(capsys, list(argv))
    assert code == 0, err
    assert rows(out) == ABS_PARAMETER[argv]


# an integral power of a root of a positive rational reduces, so
# 2^(1/2)*2^(1/2) orders against 2 and cancels against 2*x
CONSTANT_ROOTS = {
    ("subdiff", "pw{ x < 2^(1/2)*2^(1/2) -> 0 ; x >= 2 -> x - 2 }"): [
        "x < 2 -> {0}", "x = 2 -> [0, 1]", "x > 2 -> {1}"],
    ("subdiff", "pw{ x < 0 -> inf ; x >= 0 -> x*2^(1/2)*2^(1/2) - 2*x }"): [
        "x < 0 -> empty", "x = 0 -> [-inf, 0]", "x > 0 -> {0}"],
    # 16*(1 - (19/20)^(3/2)), the superquantile of a power law
    ("risk", "--quantile", "6/5*p^(1/2)", "superq", "19/20"): ["16 - 76*(19/20)^(1/2)/5"],
}


@pytest.mark.parametrize("argv", sorted(CONSTANT_ROOTS))
def test_integral_powers_of_constant_roots_reduce(capsys, argv):
    code, out, err = run(capsys, list(argv))
    assert code == 0, err
    assert rows(out) == CONSTANT_ROOTS[argv]


# a limit the structural pass cannot take is the probe's float constant:
# a decimal, never a rational read off the float's bits, and a finite
# value, never an infinite one
RECIPROCAL_TAIL = "pw{ x < 1 -> 0 ; x >= 1 -> 1 - 1/x + 1/(x + 1) }"
EXPONENTIAL_SECANT = "pw{ x < 0 -> 0 ; 0 <= x & x < 1 -> ((exp(x) - 1)/x - 1)/(exp(1) - 2) ; x >= 1 -> 1 }"


def test_a_probed_limit_is_a_decimal_not_a_fraction(capsys):
    # E(x) = E[X] = 1 + ln 2 below the support [1, inf)
    code, out, err = run(capsys, ["risk", "--cdf", RECIPROCAL_TAIL, "superexp"])
    assert code == 0, err
    row = rows(out)[0]
    assert row.startswith("x < 1 -> ")
    value = row.removeprefix("x < 1 -> ")
    assert "/" not in value
    assert abs(float(value) - (1 + math.log(2))) <= 1e-12


def test_a_probed_finite_limit_is_not_read_as_infinite(capsys):
    # F(0+) = 0 is probed; the reference is bisection on F(x) = 1/2
    code, out, err = run(capsys, ["risk", "--cdf", EXPONENTIAL_SECANT, "quantile", "1/2"])
    assert code == 0, err
    assert abs(float(out) - 0.5852441107738149) <= 1e-12
    # the derivative limit at 0 does not settle: refused, not an internal failure
    code, out, err = run(capsys, ["risk", "--cdf", EXPONENTIAL_SECANT, "superexp"])
    assert code == 2 and not out
