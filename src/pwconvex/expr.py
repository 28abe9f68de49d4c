"""Symbolic expression engine.

The expression family is deliberately small and closed under the
operations the rest of the toolkit needs: rational and decimal constants,
one distinguished variable, named parameters, negation, absolute value,
the four arithmetic operations, powers with rational exponents, exp and
ln.  There is no trig and no general composition beyond what the grammar
admits.

Two extra node types exist only as *outputs* of symbolic pipelines:

* ``ImplicitInverse`` -- the inverse of a strictly monotone expression
  that has no closed form; it evaluates by bisection.
* ``NumericIntegral`` -- an antiderivative with no closed form; it
  evaluates by Gauss-Legendre quadrature from a base point.

Both can be evaluated and printed but never re-parsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import (
    DomainError,
    MaxIterations,
    ParseError,
    UnboundParameter,
    UnsupportedOperation,
)

Number = Union[Fraction, float]

#: relative tolerance and iteration cap for the bisection fallback
BISECT_REL_TOL = 1e-14
BISECT_MAX_ITER = 200

#: Gauss-Legendre nodes per panel for the quadrature fallback
QUAD_NODES = 64


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class of all expression nodes.  Nodes are immutable."""

    __slots__ = ()

    def __add__(self, other: "Expr | int | Fraction") -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: "Expr | int | Fraction") -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: "Expr | int | Fraction") -> "Expr":
        return Sub(self, as_expr(other))

    def __rsub__(self, other: "Expr | int | Fraction") -> "Expr":
        return Sub(as_expr(other), self)

    def __mul__(self, other: "Expr | int | Fraction") -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: "Expr | int | Fraction") -> "Expr":
        return Mul(as_expr(other), self)

    def __truediv__(self, other: "Expr | int | Fraction") -> "Expr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: "Expr | int | Fraction") -> "Expr":
        return Div(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"<expr {to_text(self)}>"


@dataclass(frozen=True, repr=False, eq=False)
class Const(Expr):
    """A rational or decimal constant.  Rationals are preferred.

    Equality is type-aware: a float and a Fraction of equal value are
    different nodes, because the float is an approximation and folds
    approximately under simplification.  Python would otherwise hash
    Fraction(1, 2) and 0.5 identically and let caches mix them up.
    """

    value: Number

    def __post_init__(self):
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))

    def __eq__(self, other):
        return (
            type(other) is Const
            and isinstance(self.value, float) == isinstance(other.value, float)
            and self.value == other.value
        )

    def __hash__(self):
        return hash((Const, isinstance(self.value, float), self.value))


@dataclass(frozen=True, repr=False)
class Var(Expr):
    """The distinguished variable of the one-dimensional family."""


@dataclass(frozen=True, repr=False)
class Param(Expr):
    """A named symbolic parameter (anything the grammar's ident matches)."""

    name: str


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, repr=False)
class Abs(Expr):
    arg: Expr


@dataclass(frozen=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    """Power with a fixed rational exponent."""

    base: Expr
    exponent: Fraction

    def __post_init__(self):
        if isinstance(self.exponent, int):
            object.__setattr__(self, "exponent", Fraction(self.exponent))


@dataclass(frozen=True, repr=False)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, repr=False)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True, repr=False)
class ImplicitInverse(Expr):
    """Inverse of ``forward`` (strictly monotone on (lo, hi)) at the
    variable.  ``lo``/``hi`` bound the *forward* argument: variable-free
    expressions, exact in the parameters, or +-inf.  Evaluates by
    bisection to relative tolerance BISECT_REL_TOL.
    """

    forward: Expr
    lo: Expr | float
    hi: Expr | float
    increasing: bool = True


@dataclass(frozen=True, repr=False)
class NumericIntegral(Expr):
    """integral of ``integrand`` from ``base`` to the variable, by
    composite Gauss-Legendre quadrature.  Downstream consumers may
    evaluate this node but not re-symbolize it."""

    integrand: Expr
    base: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
X = Var()


def as_expr(v: "Expr | int | float | Fraction") -> Expr:
    """Wrap a Python number as a constant node; pass expressions through."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, bool):
        raise TypeError("booleans are not expressions")
    if isinstance(v, int):
        return Const(Fraction(v))
    if isinstance(v, Fraction):
        return Const(v)
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            raise ValueError("infinities are not expression constants")
        return Const(v)
    raise TypeError(f"cannot convert {v!r} to an expression")


def children(e: Expr) -> tuple[Expr, ...]:
    """The subexpressions of e, in the order ``map_children`` rebuilds them."""
    if isinstance(e, (Const, Var, Param)):
        return ()
    if isinstance(e, (Neg, Abs, Exp, Ln)):
        return (e.arg,)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, ImplicitInverse):
        return (e.forward, *(b for b in (e.lo, e.hi) if isinstance(b, Expr)))
    if isinstance(e, NumericIntegral):
        return (e.integrand, e.base)
    raise TypeError(f"unknown node {type(e).__name__}")


def map_children(e: Expr, fn) -> Expr:
    """e rebuilt with ``fn`` applied to each of its ``children``; leaves
    come back as they are.  Tree rewrites handle their special nodes and
    leave every other node to this function, the only code that knows
    each node's fields.  The forward map of an ImplicitInverse and the
    integrand of a NumericIntegral are in their own bound variable, so
    a rewrite that moves the variable must handle those nodes itself."""
    if isinstance(e, (Const, Var, Param)):
        return e
    if isinstance(e, (Neg, Abs, Exp, Ln)):
        return type(e)(fn(e.arg))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(fn(e.left), fn(e.right))
    if isinstance(e, Pow):
        return Pow(fn(e.base), e.exponent)
    if isinstance(e, ImplicitInverse):
        lo, hi = (b if isinstance(b, float) else fn(b) for b in (e.lo, e.hi))
        return ImplicitInverse(fn(e.forward), lo, hi, e.increasing)
    if isinstance(e, NumericIntegral):
        return NumericIntegral(fn(e.integrand), fn(e.base))
    raise TypeError(f"unknown node {type(e).__name__}")


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children(e):
        yield from walk(c)


def contains_var(e: Expr) -> bool:
    return any(isinstance(n, Var) for n in walk(e))


def param_names(e: Expr) -> set[str]:
    return {n.name for n in walk(e) if isinstance(n, Param)}


def is_numeric_node(e: Expr) -> bool:
    """True when the tree contains a bisection or quadrature node."""
    return any(isinstance(n, (ImplicitInverse, NumericIntegral)) for n in walk(e))


# ---------------------------------------------------------------------------
# Tokenizer shared by the expression and piecewise grammars
# ---------------------------------------------------------------------------

_TWO_CHAR = ("->", "<=", ">=")
_ONE_CHAR = "+-*/^(){};,&<>=[]"

KEYWORDS = {"x", "inf", "abs", "exp", "ln", "sqrt", "pw", "sd", "all", "empty"}


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | IDENT | OP | END
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            # optional exponent part: only consume when digits follow
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
                    seen_dot = True
            toks.append(Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], i))
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            toks.append(Token("OP", two, i))
            i += 2
            continue
        if ch in _ONE_CHAR:
            toks.append(Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(Token("END", "", n))
    return toks


class TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.nesting = 0  # open factors: parentheses, calls, unary minus

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "END":
            self.pos += 1
        return t

    def expect_op(self, op: str) -> Token:
        t = self.peek()
        if t.kind == "OP" and t.text == op:
            return self.next()
        raise ParseError(f"found {t.text!r}" if t.kind != "END" else "unexpected end", t.offset, (f"'{op}'",))

    def at_op(self, *ops: str) -> bool:
        t = self.peek()
        return t.kind == "OP" and t.text in ops

    def error(self, expected: tuple[str, ...]) -> ParseError:
        t = self.peek()
        what = "unexpected end of input" if t.kind == "END" else f"found {t.text!r}"
        return ParseError(what, t.offset, expected)


# ---------------------------------------------------------------------------
# Expression parser
#
# expr   := term (("+"|"-") term)*
# term   := factor (("*"|"/") factor)*
# factor := base ("^" exponent)?
# base   := number | "x" | ident | "(" expr ")" | call | "-" factor
# call   := ("abs"|"exp"|"ln"|"sqrt") "(" expr ")"
# number := decimal | int ("/" int)?
#
# A bare integer exponent may follow "^" directly; rational exponents
# must be parenthesized, so "x^4/4" means (x^4)/4.
# ---------------------------------------------------------------------------

#: deepest input the parser accepts, counted both in nested factors and in
#: levels of the parsed tree; the tree walkers recurse once per level
MAX_PARSE_DEPTH = 100


def tree_depth(e: Expr) -> int:
    """Number of levels of the tree, by an iterative walk."""
    depth, stack = 0, [(e, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in children(node))
    return depth


def _parse_number(ts: TokenStream) -> Fraction:
    t = ts.next()
    text = t.text
    # rational literal p/q: only when both sides are plain integers
    if (
        text.isdigit()
        and ts.at_op("/")
        and ts.peek(1).kind == "NUMBER"
        and ts.peek(1).text.isdigit()
    ):
        ts.next()  # '/'
        q = ts.next().text
        if int(q) == 0:
            raise ParseError("zero denominator in rational literal", t.offset)
        return Fraction(int(text), int(q))
    try:
        return Fraction(text)  # exact for both integer and decimal literals
    except ValueError:
        raise ParseError(f"bad number {text!r}", t.offset) from None


def _parse_exponent(ts: TokenStream) -> Fraction:
    neg = False
    if ts.at_op("-"):
        ts.next()
        neg = True
    t = ts.peek()
    if t.kind == "NUMBER" and t.text.isdigit():
        ts.next()
        val = Fraction(int(t.text))
    elif ts.at_op("("):
        ts.next()
        inner_neg = False
        if ts.at_op("-"):
            ts.next()
            inner_neg = True
        num_t = ts.peek()
        if num_t.kind != "NUMBER":
            raise ts.error(("integer",))
        val = _parse_number(ts)
        if inner_neg:
            val = -val
        ts.expect_op(")")
        if neg:
            raise ParseError("doubly negated exponent", t.offset)
        return val
    else:
        raise ts.error(("integer exponent", "'(p/q)'"))
    return -val if neg else val


def _parse_base(ts: TokenStream, allow_inf: bool) -> Expr:
    t = ts.peek()
    if t.kind == "NUMBER":
        return Const(_parse_number(ts))
    if t.kind == "IDENT":
        name = t.text
        if name == "x":
            ts.next()
            return X
        if name == "inf":
            raise ParseError("'inf' is only allowed as a whole piece body", t.offset)
        if name in ("abs", "exp", "ln", "sqrt"):
            ts.next()
            ts.expect_op("(")
            arg = _parse_expr(ts, allow_inf=False)
            ts.expect_op(")")
            if name == "abs":
                return Abs(arg)
            if name == "exp":
                return Exp(arg)
            if name == "ln":
                return Ln(arg)
            return Pow(arg, Fraction(1, 2))
        if name in KEYWORDS:
            raise ParseError(f"reserved word {name!r} cannot start an expression", t.offset)
        ts.next()
        return Param(name)
    if ts.at_op("("):
        ts.next()
        inner = _parse_expr(ts, allow_inf)
        ts.expect_op(")")
        return inner
    if ts.at_op("-"):
        ts.next()
        inner = _parse_factor(ts, allow_inf)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return Neg(inner)
    raise ts.error(("number", "'x'", "identifier", "'('", "'-'"))


def _parse_factor(ts: TokenStream, allow_inf: bool) -> Expr:
    ts.nesting += 1
    if ts.nesting > MAX_PARSE_DEPTH:
        raise ParseError(f"input nests deeper than {MAX_PARSE_DEPTH} levels", ts.peek().offset)
    base = _parse_base(ts, allow_inf)
    if ts.at_op("^"):
        ts.next()
        base = Pow(base, _parse_exponent(ts))
    ts.nesting -= 1
    return base


def _parse_term(ts: TokenStream, allow_inf: bool) -> Expr:
    e = _parse_factor(ts, allow_inf)
    while ts.at_op("*", "/"):
        op = ts.next().text
        rhs = _parse_factor(ts, allow_inf)
        e = Mul(e, rhs) if op == "*" else Div(e, rhs)
    return e


def _parse_expr(ts: TokenStream, allow_inf: bool = False) -> Expr:
    e = _parse_term(ts, allow_inf)
    while ts.at_op("+", "-"):
        op = ts.next().text
        rhs = _parse_term(ts, allow_inf)
        e = Add(e, rhs) if op == "+" else Sub(e, rhs)
    if ts.nesting == 0 and tree_depth(e) > MAX_PARSE_DEPTH:
        raise ParseError(f"input nests deeper than {MAX_PARSE_DEPTH} levels", ts.peek().offset)
    return e


def parse_expr(text: str) -> Expr:
    """Parse an expression string into the unique AST under the grammar."""
    ts = TokenStream(text)
    e = _parse_expr(ts)
    t = ts.peek()
    if t.kind != "END":
        raise ParseError(f"trailing input {t.text!r}", t.offset, ("end of input",))
    return e


# ---------------------------------------------------------------------------
# Printing (round-trips through parse_expr for grammar-expressible trees)
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 2  # unary minus prints at term level
_PREC_POW = 3
_PREC_ATOM = 4


def format_number(v: Number) -> str:
    """Render a number: rationals as p/q, floats with 17 significant digits."""
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def to_text(e: Expr, var: str = "x") -> str:
    """Render an expression; ``var`` names the distinguished variable."""

    def wrap(s: str, inner: int, outer: int) -> str:
        return f"({s})" if inner < outer else s

    def go(node: Expr, outer: int) -> str:
        if isinstance(node, Const):
            s = format_number(node.value)
            level = _PREC_NEG if s.startswith("-") else (_PREC_ATOM if "/" not in s else _PREC_MUL)
            return wrap(s, level, outer)
        if isinstance(node, Var):
            return var
        if isinstance(node, Param):
            return node.name
        if isinstance(node, Neg):
            inner = go(node.arg, _PREC_POW)
            return wrap(f"-{inner}", _PREC_NEG, outer)
        if isinstance(node, Abs):
            return f"abs({go(node.arg, 0)})"
        if isinstance(node, Exp):
            return f"exp({go(node.arg, 0)})"
        if isinstance(node, Ln):
            return f"ln({go(node.arg, 0)})"
        if isinstance(node, Add):
            s = f"{go(node.left, _PREC_ADD)} + {go(node.right, _PREC_ADD + 1)}"
            return wrap(s, _PREC_ADD, outer)
        if isinstance(node, Sub):
            s = f"{go(node.left, _PREC_ADD)} - {go(node.right, _PREC_ADD + 1)}"
            return wrap(s, _PREC_ADD, outer)
        if isinstance(node, Mul):
            s = f"{go(node.left, _PREC_MUL)}*{go(node.right, _PREC_MUL + 1)}"
            return wrap(s, _PREC_MUL, outer)
        if isinstance(node, Div):
            s = f"{go(node.left, _PREC_MUL)}/{go(node.right, _PREC_MUL + 1)}"
            return wrap(s, _PREC_MUL, outer)
        if isinstance(node, Pow):
            b = go(node.base, _PREC_ATOM)
            q = node.exponent
            if q.denominator == 1 and q >= 0:
                exp_s = str(q.numerator)
            else:
                exp_s = f"({q.numerator}/{q.denominator})" if q.denominator != 1 else f"({q.numerator})"
            return wrap(f"{b}^{exp_s}", _PREC_POW, outer)
        if isinstance(node, ImplicitInverse):
            fwd = to_text(node.forward, "t")
            return f"inverse[t -> {fwd}]({var})"
        if isinstance(node, NumericIntegral):
            return f"integral[{to_text(node.integrand, var)}; from {to_text(node.base, var)}]"
        raise TypeError(f"unprintable node {type(node).__name__}")

    return go(e, 0)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute(
    e: Expr,
    var: Expr | None = None,
    params: Mapping[str, Expr | int | float | Fraction] | None = None,
) -> Expr:
    """Replace the variable and/or named parameters by expressions.

    The variable of a bisection or quadrature node is its implicit
    argument, which has no node to replace: such a node keeps it and
    takes only the parameters."""

    def go(node: Expr) -> Expr:
        if isinstance(node, Var):
            return var if var is not None else node
        if isinstance(node, Param):
            if params is not None and node.name in params:
                return as_expr(params[node.name])
            return node
        if var is not None and isinstance(node, (ImplicitInverse, NumericIntegral)):
            return substitute(node, None, params)
        return map_children(node, go)

    return go(e)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def pow_sign(base_sign: int | None, exponent: Fraction) -> int | None:
    """Sign of u^(p/q), p/q the exponent in lowest terms, from the sign
    of u (1, -1, 0, or None for unknown).  A negative u follows the
    real-root rule u^(p/q) = (-1)^p * |u|^(p/q): no real value (None)
    for even q, else the sign (-1)^p.  0^(p/q) is 0 for p/q > 0 and has
    no value otherwise."""
    if base_sign is None or base_sign > 0:
        return base_sign
    if base_sign == 0:
        return 0 if exponent > 0 else None
    if exponent.denominator % 2 == 0:
        return None
    return -1 if exponent.numerator % 2 else 1


def _pow_number(base: Number, q: Fraction) -> Number:
    """Real power with rational exponent; the sign of a negative base's
    power is ``pow_sign``'s."""
    if q.denominator == 1:
        p = q.numerator
        if base == 0 and p < 0:
            raise DomainError("zero raised to a negative power")
        if isinstance(base, Fraction):
            return base**p
        return float(base) ** p
    if base == 0:
        if q < 0:
            raise DomainError("zero raised to a negative power")
        return Fraction(0) if isinstance(base, Fraction) else 0.0
    if base < 0:
        sign = pow_sign(-1, q)
        if sign is None:
            raise DomainError(f"negative base {base} under even-root exponent {q}")
        return sign * math.pow(abs(float(base)), float(q))
    return math.pow(float(base), float(q))


def evaluate(
    e: Expr,
    x: Number | int | None = None,
    params: Mapping[str, Number | int] | None = None,
) -> Number:
    """Evaluate to a rational (when arithmetic stays closed) or a float.

    Raises DomainError for log of a nonpositive value, division by zero
    and even-root powers of negative values; UnboundParameter when a
    parameter has no binding.
    """

    def go(node: Expr) -> Number:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            if x is None:
                raise DomainError("expression contains the variable but no point was given")
            return Fraction(x) if isinstance(x, int) else x
        if isinstance(node, Param):
            if params is None or node.name not in params:
                raise UnboundParameter(node.name)
            v = params[node.name]
            return Fraction(v) if isinstance(v, int) else v
        if isinstance(node, Neg):
            return -go(node.arg)
        if isinstance(node, Abs):
            return abs(go(node.arg))
        if isinstance(node, Add):
            return go(node.left) + go(node.right)
        if isinstance(node, Sub):
            return go(node.left) - go(node.right)
        if isinstance(node, Mul):
            return go(node.left) * go(node.right)
        if isinstance(node, Div):
            den = go(node.right)
            if den == 0:
                raise DomainError("division by zero")
            return go(node.left) / den
        if isinstance(node, Pow):
            return _pow_number(go(node.base), node.exponent)
        if isinstance(node, Exp):
            v = go(node.arg)
            if v == 0:
                return Fraction(1)
            try:
                return math.exp(float(v))
            except OverflowError:
                return math.inf
        if isinstance(node, Ln):
            v = go(node.arg)
            if v <= 0:
                raise DomainError(f"log of nonpositive value {v}")
            if v == 1:
                return Fraction(0)
            return math.log(float(v))
        if isinstance(node, ImplicitInverse):
            if x is None:
                raise DomainError("implicit inverse needs an evaluation point")
            return _eval_implicit(node, float(x), params)
        if isinstance(node, NumericIntegral):
            if x is None:
                raise DomainError("numeric integral needs an evaluation point")
            base = evaluate(node.base, None, params)
            return _eval_quadrature(node.integrand, float(base), float(x), params)
        raise TypeError(type(node).__name__)

    return go(e)


def _eval_implicit(node: ImplicitInverse, target: float, params) -> float:
    """Solve forward(t) = target for t in (lo, hi) by bisection."""

    def f(t: float) -> float:
        try:
            return float(evaluate(node.forward, t, params))
        except DomainError:
            return math.nan

    # the bounds are exact in the parameters: evaluate them with the rest
    lo, hi = (b if isinstance(b, float) else float(evaluate(as_expr(b), None, params))
              for b in (node.lo, node.hi))
    sign = 1.0 if node.increasing else -1.0

    # Establish a finite starting bracket inside the open interval.
    if math.isinf(lo) and math.isinf(hi):
        a, b = -1.0, 1.0
    elif math.isinf(lo):
        b = hi - 1.0 if math.isfinite(hi) else 0.0
        a = b - 1.0
    elif math.isinf(hi):
        a = lo + 1.0
        b = a + 1.0
    else:
        a = lo + (hi - lo) / 4.0
        b = hi - (hi - lo) / 4.0

    def push_low(a: float) -> float:
        # move toward lo until f(a) is on the low side of target
        for _ in range(BISECT_MAX_ITER):
            fa = f(a)
            if not math.isnan(fa) and sign * (fa - target) <= 0:
                return a
            a = (a - 1.0) * 2.0 if math.isinf(lo) else lo + (a - lo) / 2.0
        raise MaxIterations("bisection could not bracket from below")

    def push_high(b: float) -> float:
        for _ in range(BISECT_MAX_ITER):
            fb = f(b)
            if not math.isnan(fb) and sign * (fb - target) >= 0:
                return b
            b = (b + 1.0) * 2.0 if math.isinf(hi) else hi - (hi - b) / 2.0
        raise MaxIterations("bisection could not bracket from above")

    a = push_low(a)
    b = push_high(b)
    if a > b:
        a, b = b, a
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (a + b)
        if b - a <= BISECT_REL_TOL * max(1.0, abs(mid)):
            return mid
        fm = f(mid)
        if math.isnan(fm):
            # fall toward the finite side on domain hiccups near open ends
            a = mid if math.isinf(hi) else a
            b = mid if not math.isinf(hi) else b
            continue
        if sign * (fm - target) < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


_LEGENDRE_CACHE: dict[int, tuple] = {}


def _leggauss(n: int):
    if n not in _LEGENDRE_CACHE:
        import numpy as np

        _LEGENDRE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGENDRE_CACHE[n]


def _eval_quadrature(integrand: Expr, a: float, b: float, params) -> float:
    """Composite Gauss-Legendre integral of ``integrand`` over [a, b]."""
    if a == b:
        return 0.0
    nodes, weights = _leggauss(QUAD_NODES)
    panels = max(1, min(64, int(abs(b - a)) + 1))
    total = 0.0
    width = (b - a) / panels
    for k in range(panels):
        lo = a + k * width
        mid = lo + width / 2.0
        half = width / 2.0
        for t, w in zip(nodes, weights):
            total += w * float(evaluate(integrand, mid + half * float(t), params))
    return total * (width / 2.0)


def eval_array(e: Expr, xs, params: Mapping[str, Number | int] | None = None):
    """Vectorized float evaluation over a numpy array of points."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)

    def go(node: Expr):
        if isinstance(node, Const):
            return np.full_like(xs, float(node.value))
        if isinstance(node, Var):
            return xs
        if isinstance(node, Param):
            if params is None or node.name not in params:
                raise UnboundParameter(node.name)
            return np.full_like(xs, float(params[node.name]))
        if isinstance(node, Neg):
            return -go(node.arg)
        if isinstance(node, Abs):
            return np.abs(go(node.arg))
        if isinstance(node, Add):
            return go(node.left) + go(node.right)
        if isinstance(node, Sub):
            return go(node.left) - go(node.right)
        if isinstance(node, Mul):
            return go(node.left) * go(node.right)
        if isinstance(node, Div):
            den = go(node.right)
            if np.any(den == 0):
                raise DomainError("division by zero")
            return go(node.left) / den
        if isinstance(node, Pow):
            base = go(node.base)
            q = node.exponent
            if q.denominator == 1:
                return base ** int(q)
            if np.any(base < 0):
                sign = pow_sign(-1, q)
                if sign is None:
                    raise DomainError("negative base under even-root exponent")
                magnitude = np.abs(base) ** float(q)
                return np.where(base < 0, sign * magnitude, magnitude)
            return base ** float(q)
        if isinstance(node, Exp):
            with np.errstate(over="ignore"):
                return np.exp(go(node.arg))
        if isinstance(node, Ln):
            arg = go(node.arg)
            if np.any(arg <= 0):
                raise DomainError("log of nonpositive value")
            return np.log(arg)
        if isinstance(node, (ImplicitInverse, NumericIntegral)):
            return np.array([float(evaluate(node, float(t), params)) for t in xs])
        raise TypeError(type(node).__name__)

    return go(e)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Structural derivative with respect to the variable.

    abs has no derivative here; piecewise machinery removes it before
    differentiation ever happens.
    """
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg))
    if isinstance(e, Abs):
        raise UnsupportedOperation("abs is not differentiable; eliminate it first")
    if isinstance(e, Add):
        return Add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return Sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return Add(Mul(differentiate(e.left), e.right), Mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        num = Sub(Mul(differentiate(e.left), e.right), Mul(e.left, differentiate(e.right)))
        return Div(num, Pow(e.right, Fraction(2)))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        inner = differentiate(e.base)
        return Mul(Mul(Const(e.exponent), Pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Exp):
        return Mul(Exp(e.arg), differentiate(e.arg))
    if isinstance(e, Ln):
        return Div(differentiate(e.arg), e.arg)
    if isinstance(e, ImplicitInverse):
        raise UnsupportedOperation("implicit inverses cannot be re-symbolized")
    if isinstance(e, NumericIntegral):
        return e.integrand
    raise TypeError(type(e).__name__)
