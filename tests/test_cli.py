"""CLI contract: exit 0 on success, 2 for bad input, 3 for internal
failures, and one error line on stderr instead of a traceback."""

import json

import pytest

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
