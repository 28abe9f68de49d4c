"""Command-line surface over the pipelines.

Every subcommand reads function or operator DSL strings, runs one
library pipeline, and prints either aligned text rows or JSON.  Exit
codes: 0 on success, 2 for bad input, 3 for internal failures.  A
failure prints one ``error[Kind]: message`` line to stderr, never a
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .assumptions import AssumptionEnv
from .conv import biconjugate, conjugate
from .errors import InconsistentEnv, InputError
from .expr import Expr, contains_var, evaluate, format_number, parse_expr, to_text
from .monop import (
    eval_op,
    invert,
    maximal_extension,
    parse_operator,
    prox,
    resolvent,
    subdifferential,
)
from .penalty import recover_penalty, verify_penalty
from .pwf import build_function, eval_pwf, parse_piecewise_map, parse_pwf
from .render import (
    function_to_json,
    operator_to_json,
    render_function,
    render_operator,
    render_set,
    setvalue_to_json,
)
from .risk import DistributionSpec, cvar, quantile, superdistribution, superexpectation, superquantile
from .sep import parse_separable, separable_conjugate, separable_prox

OK = 0
BAD_INPUT = 2
INCONSISTENT = 3


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _env(args) -> AssumptionEnv:
    return AssumptionEnv.parse(args.assume)


def _params(args, env: AssumptionEnv) -> dict[str, Expr] | None:
    """The --param bindings, checked once against the assumptions."""
    if not args.param:
        return None
    out: dict[str, Expr] = {}
    numbers: dict[str, Fraction] = {}
    for item in args.param:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq or not name.isidentifier():
            raise InputError(f"--param expects NAME=EXPR, got {item!r}")
        e = parse_expr(value)
        if contains_var(e):
            raise InputError(f"parameter {name} must not contain the variable")
        v = evaluate(e)
        if not math.isfinite(v):
            raise InputError(f"parameter {name} must be finite")
        out[name], numbers[name] = e, Fraction(v)
    if not env.admits(numbers):
        shown = ", ".join(f"{k} = {to_text(e)}" for k, e in out.items())
        raise InconsistentEnv(f"the binding {shown} violates the assumptions")
    return out


def _point(text: str) -> Expr:
    e = parse_expr(text.strip())
    if contains_var(e):
        raise InputError(f"evaluation point {text.strip()!r} must not contain the variable")
    return e


def _vector(text: str) -> list[Expr]:
    return [_point(part) for part in text.split(",")]


def _need_at(args) -> str:
    if args.at is None:
        raise InputError("this invocation needs --at <point>")
    return args.at


def _scalar_text(v) -> str:
    if isinstance(v, Expr):
        return to_text(v)
    return format_number(v)


def _scalar_json(v) -> dict:
    return {"kind": "value", "value": _scalar_text(v)}


def _is_operator_text(text: str) -> bool:
    return text.lstrip().startswith("sd{")


def _is_separable_text(text: str) -> bool:
    return ";;" in text


def _emit(args, text_out: str, json_out) -> tuple[str, int]:
    if args.json:
        return json.dumps(json_out, indent=2), OK
    return text_out, OK


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _one_function(args, env: AssumptionEnv):
    if _is_separable_text(args.input) or _is_operator_text(args.input):
        raise InputError("this subcommand takes a single one-dimensional function")
    return parse_pwf(args.input, env)


def _cmd_subdiff(args):
    T = subdifferential(_one_function(args, _env(args)))
    return _emit(args, render_operator(T), operator_to_json(T))


def _cmd_conj(args):
    env = _env(args)
    if _is_separable_text(args.input):
        g = separable_conjugate(parse_separable(args.input, env))
        texts = [render_function(c) for c in g]
        return _emit(args, "\n;;\n".join(texts), [function_to_json(c) for c in g])
    g = conjugate(parse_pwf(args.input, env))
    return _emit(args, render_function(g), function_to_json(g))


def _cmd_biconj(args):
    g = biconjugate(_one_function(args, _env(args)))
    return _emit(args, render_function(g), function_to_json(g))


def _cmd_prox(args):
    env = _env(args)
    params = _params(args, env)
    if _is_separable_text(args.input):
        f = parse_separable(args.input, env)
        xs = _vector(_need_at(args))
        sets = separable_prox(f, parse_expr(args.lam), xs)
        text = "(" + ", ".join(render_set(v) for v in sets) + ")"
        return _emit(args, text, [setvalue_to_json(v) for v in sets])
    R = prox(parse_pwf(args.input, env), parse_expr(args.lam))
    if args.at is None:
        return _emit(args, render_operator(R), operator_to_json(R))
    v = eval_op(R, _point(args.at), params=params)
    return _emit(args, render_set(v, R.varname), setvalue_to_json(v, R.varname))


def _cmd_invert(args):
    T = invert(parse_operator(args.input, _env(args)))
    return _emit(args, render_operator(T), operator_to_json(T))


def _cmd_resolvent(args):
    R = resolvent(parse_operator(args.input, _env(args)), parse_expr(args.lam))
    return _emit(args, render_operator(R), operator_to_json(R))


def _cmd_extend(args):
    T = maximal_extension(parse_operator(args.input, _env(args)))
    return _emit(args, render_operator(T), operator_to_json(T))


def _cmd_penalty(args):
    f = recover_penalty(parse_operator(args.input, _env(args)))
    return _emit(args, render_function(f), function_to_json(f))


def _cmd_verify(args):
    env = _env(args)
    T = parse_operator(args.operator, env)
    # weakly convex, as recover_penalty returns a penalty: verify_penalty
    # checks that f + x^2/2 is convex
    f = build_function(*parse_piecewise_map(args.function, env), env, weakly_convex=True)
    r = verify_penalty(T, f)
    payload = {
        "kind": "report",
        "passed": r.passed,
        "max_violation": r.max_violation,
        "samples": r.samples,
        "witness": list(r.witness) if r.witness else None,
        "reason": r.reason,
    }
    if r.passed:
        text = f"verification passed: max violation {r.max_violation:.3e} over {r.samples} samples"
    else:
        detail = r.reason if r.reason else f"max violation {r.max_violation:.3e} at x = {r.witness[0]}"
        text = f"verification FAILED: {detail}"
    out, _ = _emit(args, text, payload)
    return out, OK if r.passed else BAD_INPUT


def _cmd_eval(args):
    env = _env(args)
    params = _params(args, env)
    at = _need_at(args)
    if _is_operator_text(args.input):
        T = parse_operator(args.input, env)
        v = eval_op(T, _point(at), params=params)
        return _emit(args, render_set(v, T.varname), setvalue_to_json(v, T.varname))
    if _is_separable_text(args.input):
        f = parse_separable(args.input, env)
        xs = _vector(at)
        if len(xs) != len(f.coordinates):
            raise InputError(
                f"point has {len(xs)} coordinates but the function has {len(f.coordinates)}"
            )
        total = 0
        for fj, xj in zip(f.coordinates, xs):
            vj = eval_pwf(fj, xj, params=params)
            if isinstance(vj, float) and math.isinf(vj):
                total = math.inf
                break
            total = total + vj
        return _emit(args, _scalar_text(total), _scalar_json(total))
    v = eval_pwf(parse_pwf(args.input, env), _point(at), params=params)
    return _emit(args, _scalar_text(v), _scalar_json(v))


def _cmd_risk(args):
    env = _env(args)
    if args.cdf is not None:
        d = DistributionSpec.from_cdf(args.cdf, env)
    else:
        d = DistributionSpec.from_quantile(args.quantile, env)
    action = args.action
    if action in ("superq", "cvar", "quantile"):
        if args.p is None:
            raise InputError(f"risk {action} needs a probability level p")
        p = _point(args.p)
        fn = {"superq": superquantile, "cvar": cvar, "quantile": quantile}[action]
        v = fn(d, p)
        return _emit(args, _scalar_text(v), _scalar_json(v))
    if args.p is not None:
        raise InputError(f"risk {action} takes no probability level")
    if action == "superexp":
        E = superexpectation(d)
        return _emit(args, render_function(E), function_to_json(E))
    F = superdistribution(d)
    return _emit(args, render_operator(F), operator_to_json(F))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--assume", action="append", default=[], metavar="REL",
                        help="assumption such as '0 < l' (repeatable)")
    common.add_argument("--param", action="append", default=[], metavar="NAME=EXPR",
                        help="bind a parameter for evaluation (repeatable)")
    common.add_argument("--json", action="store_true", help="emit JSON instead of text rows")

    parser = argparse.ArgumentParser(
        prog="pwconvex",
        description="Symbolic convex analysis for piecewise functions and monotone operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("subdiff", _cmd_subdiff, "subdifferential of a function")
    p.add_argument("input", help="function DSL pw{...} or a bare expression")

    p = add("conj", _cmd_conj, "Fenchel conjugate (';;' separates coordinates)")
    p.add_argument("input")

    p = add("biconj", _cmd_biconj, "conjugate applied twice")
    p.add_argument("input")

    p = add("prox", _cmd_prox, "proximal map; --at evaluates it at a point")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", default="1", metavar="EXPR", help="step size (default 1)")
    p.add_argument("--at", metavar="POINT", help="point, or comma vector for ';;' input")

    p = add("invert", _cmd_invert, "graph inverse of an operator")
    p.add_argument("input", help="operator DSL sd{...} or a bare expression")

    p = add("resolvent", _cmd_resolvent, "(I + lambda T)^(-1)")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", default="1", metavar="EXPR", help="step size (default 1)")

    p = add("extend", _cmd_extend, "maximal monotone extension")
    p.add_argument("input")

    p = add("penalty", _cmd_penalty, "penalty function whose prox extends the operator")
    p.add_argument("input")

    p = add("verify", _cmd_verify, "check that prox of the function covers the operator graph")
    p.add_argument("operator")
    p.add_argument("function")

    p = add("eval", _cmd_eval, "evaluate a function or operator at --at")
    p.add_argument("input")
    p.add_argument("--at", metavar="POINT", help="point, or comma vector for ';;' input")

    p = add("risk", _cmd_risk, "distribution pipelines (superexpectation and friends)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cdf", metavar="DSL", help="distribution function as pw{...}")
    src.add_argument("--quantile", metavar="EXPR", help="quantile function on (0,1)")
    p.add_argument("action", choices=["superexp", "superdist", "superq", "cvar", "quantile"])
    p.add_argument("p", nargs="?", help="probability level for superq/cvar/quantile")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except InputError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return BAD_INPUT
    except Exception as exc:  # ToolkitError, or a fault the library did not classify
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return INCONSISTENT
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early; send the flush at exit to devnull so it
            # cannot raise again, and keep the exit code of the result
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
