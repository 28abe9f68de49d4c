"""Symbolic convex analysis on the real line.

Piecewise convex functions, set-valued monotone operators, and exact
transform calculus: subdifferentiation, inversion, integration,
conjugation, proximal maps, penalty recovery, and tail-risk functionals.
"""

from .assumptions import AssumptionEnv, Ordering
from .conv import biconjugate, conjugate, integ
from .errors import (
    InputError,
    InternalInconsistency,
    NonConvex,
    ParseError,
    ToolkitError,
)
from .expr import (
    Expr,
    as_expr,
    differentiate,
    evaluate,
    format_number,
    parse_expr,
    to_text,
)
from .monop import (
    MonotoneOperator,
    SetValue,
    add,
    build_operator,
    eval_op,
    identity_operator,
    invert,
    maximal_extension,
    parse_operator,
    prox,
    resolvent,
    scale,
    subdifferential,
)
from .oracle import sample_graph
from .penalty import PenaltyReport, recover_penalty, verify_penalty
from .pwf import PiecewiseFunction, build_function, domain, eval_pwf, parse_pwf
from .render import (
    function_to_json,
    operator_to_json,
    render_function,
    render_operator,
    render_set,
    setvalue_to_json,
)
from .risk import (
    DistributionSpec,
    cvar,
    quantile,
    superdistribution,
    superexpectation,
    superexpectation_conjugate,
    superquantile,
)
from .sep import SeparableFunction, parse_separable, separable_conjugate, separable_prox

__all__ = [
    "AssumptionEnv",
    "DistributionSpec",
    "Expr",
    "InputError",
    "InternalInconsistency",
    "MonotoneOperator",
    "NonConvex",
    "Ordering",
    "ParseError",
    "PenaltyReport",
    "PiecewiseFunction",
    "SeparableFunction",
    "SetValue",
    "ToolkitError",
    "add",
    "as_expr",
    "biconjugate",
    "build_function",
    "build_operator",
    "conjugate",
    "cvar",
    "differentiate",
    "domain",
    "eval_op",
    "eval_pwf",
    "evaluate",
    "format_number",
    "function_to_json",
    "identity_operator",
    "integ",
    "invert",
    "maximal_extension",
    "operator_to_json",
    "parse_expr",
    "parse_operator",
    "parse_pwf",
    "parse_separable",
    "prox",
    "quantile",
    "recover_penalty",
    "render_function",
    "render_operator",
    "render_set",
    "resolvent",
    "sample_graph",
    "scale",
    "separable_conjugate",
    "separable_prox",
    "setvalue_to_json",
    "subdifferential",
    "superdistribution",
    "superexpectation",
    "superexpectation_conjugate",
    "superquantile",
    "to_text",
    "verify_penalty",
]
