"""Symbolic expression engine.

The expression family is deliberately small and closed under the
operations the rest of the toolkit needs: rational and decimal constants,
one distinguished variable, named parameters, negation, absolute value,
the four arithmetic operations, powers with rational exponents, exp and
ln.  There is no trig and no general composition beyond what the grammar
admits.

Two extra node types exist only as *outputs* of symbolic pipelines:

* ``ImplicitInverse`` -- the inverse of a strictly monotone expression
  that has no closed form; it evaluates by Newton's method safeguarded
  by bisection.
* ``NumericIntegral`` -- an antiderivative with no closed form; it
  evaluates by Gauss-Legendre quadrature from a base point, or, for an
  implicit inverse whose forward map has a known primitive, by the
  inverse-function rule with one solve per value.

Both can be evaluated and printed but never re-parsed.

``evaluate`` is the tree walk: exact in rationals while the arithmetic
stays closed, floats otherwise.  ``float_kernel`` compiles an expression
to a float function of the point, bound to a parameter binding, for
the loops that evaluate one expression many times: the forward map of
an implicit inverse and its derivative, the integrand of a quadrature,
and the Chebyshev sampler ``numeric.sample``.  Its code is generated
once per expression and compiled once per shape (``KERNEL_CACHE_SIZE``
entries each).  Its contract is bit identity with the walk: for
every float point it returns ``float(evaluate(e, x, params))`` or raises
the walk's exception.  Both read the float meaning of each node from the
same helpers (``_nonzero``, ``_exp_number``, ``_ln_number``,
``_pow_number``).  Single evaluations stay on the walk.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Union

from .errors import (
    DomainError,
    MaxIterations,
    ParseError,
    ToolkitError,
    UnboundParameter,
    UnsupportedOperation,
)

#: a number: exact as an int or a Fraction, or a float approximation.
#: Constants and exponents keep an integral value as int, which hashes
#: and compares like the equal Fraction, and faster.
Number = Union[int, Fraction, float]

#: an implicit inverse is solved to relative tolerance BISECT_REL_TOL
#: (of max(1, |root|)); BISECT_MAX_ITER caps each push of the bracket
#: toward an end, and three times that the safeguarded Newton steps
BISECT_REL_TOL = 1e-14
BISECT_MAX_ITER = 200

#: a quadrature panel whose last two Legendre coefficients exceed this
#: share of max(1, its largest sample) is halved, at most QUAD_MAX_SPLITS
#: deep; the floor of 1 keeps solver noise (BISECT_REL_TOL absolute
#: below 1) from splitting panels of small values
QUAD_TAIL_TOL = 1e-8
QUAD_MAX_SPLITS = 8


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class of all expression nodes.  Nodes are immutable and
    slotted (no instance dict): the simplify cache holds thousands of
    them."""

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


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class Const(Expr):
    """A rational or decimal constant.  Rationals are preferred; an
    integral one is stored as int, so Const(Fraction(3)) is Const(3).

    Equality is type-aware: a float and an exact value of equal value are
    different nodes, because the float is an approximation and folds
    approximately under simplification.  Python would otherwise hash
    Fraction(1, 2) and 0.5 identically and let caches mix them up.

    The hash agrees with that equality, so equal nodes hash alike: an int
    or a float hashes as itself, a Fraction as its numerator and
    denominator, which spares ``Fraction.__hash__`` (a modular inverse
    on every call).  A float and the equal int hash alike but are
    unequal nodes.
    """

    value: Number

    def __post_init__(self):
        v = self.value
        if type(v) is Fraction and v.denominator == 1:
            object.__setattr__(self, "value", v.numerator)

    def __eq__(self, other):
        return (
            type(other) is Const
            and isinstance(self.value, float) == isinstance(other.value, float)
            and self.value == other.value
        )

    def __hash__(self):
        v = self.value
        if type(v) is Fraction:
            return hash((v.numerator, v.denominator))
        return hash(v)


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expr):
    """The distinguished variable of the one-dimensional family."""


@dataclass(frozen=True, slots=True, repr=False)
class Param(Expr):
    """A named symbolic parameter (anything the grammar's ident matches)."""

    name: str


@dataclass(frozen=True, slots=True, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Abs(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Pow(Expr):
    """Power with a fixed rational exponent, stored as int when integral."""

    base: Expr
    exponent: int | Fraction

    def __post_init__(self):
        q = self.exponent
        if type(q) is Fraction and q.denominator == 1:
            object.__setattr__(self, "exponent", q.numerator)


@dataclass(frozen=True, slots=True, repr=False)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True, repr=False)
class Ln(Expr):
    arg: Expr


def _kept_hash(node: ImplicitInverse | NumericIntegral) -> int:
    """The hash of a numeric node, computed once: the solver cache hashes
    it on every lookup, and hashing a tree walks all of it."""
    h = node._hash
    if h is None:
        h = hash(tuple(getattr(node, f.name) for f in fields(node) if f.compare))
        object.__setattr__(node, "_hash", h)
    return h


@dataclass(frozen=True, slots=True, repr=False)
class ImplicitInverse(Expr):
    """Inverse of ``forward`` (strictly increasing on (lo, hi)) at the
    variable.  ``lo``/``hi`` bound the *forward* argument: variable-free
    expressions, exact in the parameters, or +-inf.  Evaluates by
    Newton's method on ``forward`` and its derivative, safeguarded by a
    bracket that bisection keeps, to relative tolerance BISECT_REL_TOL
    (``_Solver``).
    """

    forward: Expr
    lo: Expr | float
    hi: Expr | float
    _hash: int | None = field(default=None, init=False, compare=False)
    __hash__ = _kept_hash


@dataclass(frozen=True, slots=True, repr=False)
class NumericIntegral(Expr):
    """integral of ``integrand`` from ``base`` to the variable.

    ``primitive``, when given, is an antiderivative G of the forward map
    g of an ImplicitInverse integrand, in g's own variable.  The
    integral is then [y*g^-1(y) - G(g^-1(y))] from base to the variable
    (g continuous and strictly increasing on its (lo, hi)): one solve per
    value.  Its y-derivative is
    g^-1(y) + (y - g(g^-1(y)))*(g^-1)'(y), so the solver's tolerance
    enters only to second order.  Otherwise, and wherever that closed
    form raises or is not finite, it evaluates by composite
    Gauss-Legendre quadrature.  Downstream consumers may evaluate this
    node but not re-symbolize it."""

    integrand: Expr
    base: Expr
    primitive: Expr | None = None
    _hash: int | None = field(default=None, init=False, compare=False)
    __hash__ = _kept_hash


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
X = Var()


def as_expr(v: "Expr | int | float | Fraction") -> Expr:
    """Wrap a Python number as a constant node; pass expressions through."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, bool):
        raise TypeError("booleans are not expressions")
    if isinstance(v, (int, Fraction)):
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
        return (e.integrand, e.base) + (() if e.primitive is None else (e.primitive,))
    raise TypeError(f"unknown node {type(e).__name__}")


def map_children(e: Expr, fn) -> Expr:
    """e rebuilt with ``fn`` applied to each of its ``children``; leaves
    come back as they are.  Tree rewrites handle their special nodes and
    leave every other node to this function, the only code that knows
    each node's fields.  The forward map of an ImplicitInverse and the
    integrand and primitive of a NumericIntegral are in their own bound
    variable, so a rewrite that moves the variable must handle those
    nodes itself."""
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
        return ImplicitInverse(fn(e.forward), lo, hi)
    if isinstance(e, NumericIntegral):
        return NumericIntegral(fn(e.integrand), fn(e.base), None if e.primitive is None else fn(e.primitive))
    raise TypeError(f"unknown node {type(e).__name__}")


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children(e):
        yield from walk(c)


def _has_node(e: Expr, kinds: type | tuple[type, ...]) -> bool:
    """True when some node of the tree is one of ``kinds``: an iterative
    walk that stops at the first such node."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, kinds):
            return True
        stack.extend(children(node))
    return False


def contains_var(e: Expr) -> bool:
    return _has_node(e, Var)


def param_names(e: Expr) -> set[str]:
    return {n.name for n in walk(e) if isinstance(n, Param)}


def is_numeric_node(e: Expr) -> bool:
    """True when the tree contains an implicit inverse or a quadrature node."""
    return _has_node(e, (ImplicitInverse, NumericIntegral))


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


def _parse_base(ts: TokenStream) -> Expr:
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
            arg = _parse_expr(ts)
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
        inner = _parse_expr(ts)
        ts.expect_op(")")
        return inner
    if ts.at_op("-"):
        ts.next()
        inner = _parse_factor(ts)
        if isinstance(inner, Const):
            return Const(-inner.value)
        return Neg(inner)
    raise ts.error(("number", "'x'", "identifier", "'('", "'-'"))


def _parse_factor(ts: TokenStream) -> Expr:
    ts.nesting += 1
    if ts.nesting > MAX_PARSE_DEPTH:
        raise ParseError(f"input nests deeper than {MAX_PARSE_DEPTH} levels", ts.peek().offset)
    base = _parse_base(ts)
    if ts.at_op("^"):
        ts.next()
        base = Pow(base, _parse_exponent(ts))
    ts.nesting -= 1
    return base


def _parse_term(ts: TokenStream) -> Expr:
    e = _parse_factor(ts)
    while ts.at_op("*", "/"):
        op = ts.next().text
        rhs = _parse_factor(ts)
        e = Mul(e, rhs) if op == "*" else Div(e, rhs)
    return e


def _parse_expr(ts: TokenStream) -> Expr:
    e = _parse_term(ts)
    while ts.at_op("+", "-"):
        op = ts.next().text
        rhs = _parse_term(ts)
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
    if not isinstance(v, float):
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

    The variable of an implicit inverse or quadrature node is its implicit
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
        if p < 0 and isinstance(base, int):
            return Fraction(1, base**-p)  # int ** -p is a float
        return base**p
    if base == 0:
        if q < 0:
            raise DomainError("zero raised to a negative power")
        return 0.0 if isinstance(base, float) else Fraction(0)
    if base < 0:
        sign = pow_sign(-1, q)
        if sign is None:
            raise DomainError(f"negative base {base} under even-root exponent {q}")
        return sign * math.pow(abs(float(base)), float(q))
    return math.pow(float(base), float(q))


def _nonzero(den: Number) -> Number:
    """den as a divisor; DomainError when it is zero."""
    if den == 0:
        raise DomainError("division by zero")
    return den


def _exp_number(v: Number) -> Number:
    """exp(v): exactly 1 at v = 0, inf where the float overflows."""
    if v == 0:
        return Fraction(1)
    try:
        return math.exp(float(v))
    except OverflowError:
        return math.inf


def _ln_number(v: Number) -> Number:
    """ln(v): exactly 0 at v = 1; DomainError for v <= 0."""
    if v <= 0:
        raise DomainError(f"log of nonpositive value {v}")
    if v == 1:
        return Fraction(0)
    return math.log(float(v))


def evaluate(
    e: Expr,
    x: Number | None = None,
    params: Mapping[str, Number] | None = None,
) -> Number:
    """Evaluate to a Fraction (when arithmetic stays closed) or a float;
    an integral value is a Fraction too, though constants hold it as int.

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
            return x
        if isinstance(node, Param):
            if params is None or node.name not in params:
                raise UnboundParameter(node.name)
            return params[node.name]
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
            den = _nonzero(go(node.right))
            num = go(node.left)
            if isinstance(num, int) and isinstance(den, int):
                return Fraction(num, den)  # int / int is a float
            return num / den
        if isinstance(node, Pow):
            return _pow_number(go(node.base), node.exponent)
        if isinstance(node, Exp):
            return _exp_number(go(node.arg))
        if isinstance(node, Ln):
            return _ln_number(go(node.arg))
        if isinstance(node, ImplicitInverse):
            if x is None:
                raise DomainError("implicit inverse needs an evaluation point")
            return _eval_implicit(node, float(x), params)
        if isinstance(node, NumericIntegral):
            if x is None:
                raise DomainError("numeric integral needs an evaluation point")
            base, b = float(evaluate(node.base, None, params)), float(x)
            # an empty integral is 0.0 without a closed form to build
            return _eval_integral(node, base, b, params, _integral_form(node, params) if b != base else None)
        raise TypeError(type(node).__name__)

    out = go(e)
    return Fraction(out) if isinstance(out, int) else out


# ---------------------------------------------------------------------------
# Compiled float kernel
# ---------------------------------------------------------------------------

#: expressions whose kernel template is kept, and kernel sources whose
#: compiled factory is kept, least recently used first out
KERNEL_CACHE_SIZE = 256

_BINARY = {Add: "+", Sub: "-", Mul: "*"}
_UNARY = {Neg: "-{}", Abs: "abs({})", Exp: "_exp_number({})", Ln: "_ln_number({})"}


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel_template(e: Expr):
    """The code of e's kernel, as (factory, slots).  ``factory(walk,
    params, s0, s1, ...)`` returns the kernel; slot ``si`` is described
    by ``slots[i]``: ("fold", path) for a maximal subtree that does not
    read the point, bound as its float; ("node", path) for a numeric
    node, bound as the node; ("solver", path) for an implicit inverse,
    bound as its ``_Solver`` at the binding; ("integral", path) for a
    NumericIntegral, bound as its closed form at the binding or None;
    ("const", value) for an exponent.  A path lists ``children`` indices
    from the root, so the slots of any expression equal to e are read
    from that expression itself.  The factory is compiled once per
    source text (``_compiled``): two trees of one shape that differ only
    in their constants and exponents share it."""
    lines: list[str] = []
    slots: list[tuple[str, object]] = []
    reads: dict[int, bool] = {}  # id of a node -> whether its subtree reads the point

    def mark(node: Expr) -> bool:
        # one bottom-up pass, so that compiling is linear in the tree;
        # a numeric node reads the point as its argument
        r = reads.get(id(node))
        if r is None:
            r = isinstance(node, (Var, ImplicitInverse, NumericIntegral))
            if not r:
                for c in children(node):
                    r = mark(c) or r
            reads[id(node)] = r
        return r

    def bind(kind: str, payload) -> str:
        slots.append((kind, payload))
        return f"s{len(slots) - 1}"

    def emit(node: Expr, path: tuple[int, ...]) -> str:
        if not reads[id(node)]:
            return bind("fold", path)
        if isinstance(node, Var):
            return "x"
        if isinstance(node, (Neg, Abs, Exp, Ln)):
            arg = emit(node.arg, path + (0,))
            out = f"t{len(lines)}"
            lines.append(f"{out} = " + _UNARY[type(node)].format(arg))
            if isinstance(node, (Exp, Ln)):
                # the walk keeps exp(0) = 1 and ln(1) = 0 as Fractions,
                # which then combine exactly with exact neighbours where
                # the kernel has floats: such a point is the walk's
                lines.append(f"if {out}.__class__ is not float: return walk(x)")
            return out
        if isinstance(node, Div):
            # the walk reads and checks the divisor first
            den = emit(node.right, path + (1,))
            lines.append(f"_nonzero({den})")
            num = emit(node.left, path + (0,))
            out = f"t{len(lines)}"
            lines.append(f"{out} = {num} / {den}")
            return out
        if isinstance(node, (Add, Sub, Mul)):
            left, right = emit(node.left, path + (0,)), emit(node.right, path + (1,))
            out = f"t{len(lines)}"
            lines.append(f"{out} = {left} {_BINARY[type(node)]} {right}")
            return out
        if isinstance(node, Pow):
            base, q = emit(node.base, path + (0,)), node.exponent
            if q.denominator == 1 and q >= 0:
                value = f"{base} ** {bind('const', q.numerator)}"
            else:
                value = f"_pow_number({base}, {bind('const', q)})"
        elif isinstance(node, ImplicitInverse):
            value = f"_eval_implicit({bind('node', path)}, x, params, {bind('solver', path)})"
        else:
            base = bind("fold", path + (1,))
            value = f"_eval_integral({bind('node', path)}, {base}, x, params, {bind('integral', path)})"
        out = f"t{len(lines)}"
        lines.append(f"{out} = {value}")
        return out

    mark(e)
    result = emit(e, ())
    args = "".join(f", s{i}" for i in range(len(slots)))
    body = "".join(f"        {line}\n" for line in lines)
    source = (f"def factory(walk, params{args}):\n    def kernel(x):\n{body}"
              f"        return {result}\n    return kernel\n")
    return _compiled(source), tuple(slots)


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _compiled(source: str):
    """The factory that source defines, compiled once per source text.
    Constants and exponents are slots, so the text depends only on the
    shape of the tree, and trees of one shape share one factory."""
    namespace: dict = {}
    exec(compile(source, "<float kernel>", "exec"), globals(), namespace)
    return namespace["factory"]


def float_kernel(e: Expr, params: Mapping[str, Number] | None = None) -> Callable[[float], float]:
    """e as a float function of a float point x under params, equal bit
    for bit to ``float(evaluate(e, x, params))``, errors included.

    The template is built once per expression and compiled once per
    shape (``KERNEL_CACHE_SIZE`` entries each), and bound here: each maximal subtree that does not read the point is
    evaluated exactly once and enters as its float, which is the operand
    the walk converts it to.  Where the two would part the kernel is the
    walk: a folded subtree that raises, or that rounds to 0.0 from a
    nonzero value (a divisor), and a point where exp or ln is exact.
    Each implicit inverse enters with its solver, the one the walk takes
    from the solver cache; where building it raises, every solve looks
    it up again and raises as the walk's does.  Each NumericIntegral
    enters with its closed form from the same cache, or None."""
    factory, slots = _kernel_template(e)

    def walk(x: float) -> float:
        return float(evaluate(e, x, params))

    bound = []
    for kind, payload in slots:
        if kind == "const":
            bound.append(payload)
            continue
        node = e
        for i in payload:
            node = children(node)[i]
        if kind == "node":
            bound.append(node)
            continue
        if kind == "integral":
            bound.append(_integral_form(node, params))
            continue
        if kind == "solver":
            try:
                bound.append(_solver(node, params))
            except (ToolkitError, ArithmeticError, ValueError):
                bound.append(None)
            continue
        try:
            exact = evaluate(node, None, params)
            value = float(exact)
        except (ToolkitError, ArithmeticError, ValueError):
            return walk
        if value == 0 and exact != 0:
            return walk
        bound.append(value)
    return factory(walk, params, *bound)


def _eval_implicit(node: ImplicitInverse, target: float, params, solver: "_Solver | None" = None) -> float:
    """Solve forward(t) = target for t in (lo, hi).  A kernel passes the
    solver it bound; the walk takes it from the solver cache."""
    return (_solver(node, params) if solver is None else solver).solve(target)


#: (node, binding) pairs whose solver or closed-form integral is kept,
#: least recently used first out
SOLVER_CACHE_SIZE = 64


def _cached(node: Expr, params, build: Callable):
    """build(node, params), kept per node and binding.  The key holds the
    node by value, so an equal copy, such as the fresh one a substitution
    builds, finds the same entry; the node keeps its hash, and a lookup
    tests identity before equality, so a node read again walks no tree.
    The binding part of the key tells apart bindings that compare equal
    but evaluate differently: Fraction(1, 2) and 0.5, 0.0 and -0.0.  A
    build that raises is not kept."""
    binding = tuple(sorted((k, type(v), repr(v), v) for k, v in params.items())) if params else ()
    return _cached_build(node, binding, build)


@functools.lru_cache(maxsize=SOLVER_CACHE_SIZE)
def _cached_build(node: Expr, binding: tuple, build: Callable):
    return build(node, {k: v for k, _, _, v in binding})


def _solver(node: ImplicitInverse, params) -> "_Solver":
    """The solver of node under params."""
    return _cached(node, params, _Solver)


def _no_slope(t: float) -> float:
    return math.nan


class _Solver:
    """forward(t) = target for t in the open (lo, hi) of one
    ImplicitInverse under one binding, by Newton's method safeguarded by
    bisection (after Brent, *Algorithms for Minimization without
    Derivatives*, 1973).  The forward map and its derivative are float
    kernels and the bounds floats, all bound once."""

    __slots__ = ("forward", "slope", "lo", "hi")

    def __init__(self, node: ImplicitInverse, params):
        self.forward = float_kernel(node.forward, params)
        try:
            self.slope = float_kernel(differentiate(node.forward), params)
        except UnsupportedOperation:  # a hand-built abs or a nested inverse: every step bisects
            self.slope = _no_slope
        # the bounds are exact in the parameters: evaluate them with the rest
        self.lo, self.hi = (b if isinstance(b, float) else float(evaluate(as_expr(b), None, params))
                            for b in (node.lo, node.hi))

    def gap(self, t: float, target: float) -> float:
        """forward(t) - target: increasing in t, NaN off the domain."""
        try:
            return self.forward(t) - target
        except DomainError:
            return math.nan

    def push(self, t: float, target: float, side: float) -> tuple[float, float]:
        """t moved toward the end on ``side`` (-1 lo, 1 hi) until the gap
        there has that side's sign, with that gap: by doubling steps
        toward an infinite end, by halving the distance to a finite one.
        Within BISECT_REL_TOL of a finite end with the gap still on the
        wrong side, the root lies in that sliver: the end is returned,
        with NaN for its gap."""
        end = self.lo if side < 0 else self.hi
        for _ in range(BISECT_MAX_ITER):
            g = self.gap(t, target)
            if side * g >= 0:
                return t, g
            if math.isinf(end):
                # from side * t <= -1, doubling t + side stalls or
                # moves away from the end: jump to 0 first
                t = (t + side) * 2.0 if side * t > -1.0 else 0.0
            elif g == g and abs(t - end) <= BISECT_REL_TOL * max(1.0, abs(t)):
                return end, math.nan
            else:
                t = end + (t - end) / 2.0
        raise MaxIterations(f"could not bracket the root from {'below' if side < 0 else 'above'}")

    def solve(self, target: float) -> float:
        """The midpoint of a bracket no wider than BISECT_REL_TOL *
        max(1, |midpoint|) whose ends straddle the target, or a point where
        forward hits the target exactly.

        Each step takes the Newton iterate, or bisects when that iterate
        leaves the bracket, when the derivative there has no positive
        finite value, or when the step has not halved in two steps (the
        step, not the bracket: Newton converges from one side, so one end
        of the bracket stays where it was).  A Newton step shorter than
        the tolerance closes the bracket with one probe on each side of
        the iterate."""
        lo, hi = self.lo, self.hi
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
        (a, ga), (b, gb) = self.push(a, target, -1.0), self.push(b, target, 1.0)
        if ga == 0 or gb == 0:
            return a if ga == 0 else b
        # start from the secant point: the midpoint of a wide bracket is
        # often 0, where exp is exact and the kernels fall back to the walk
        t = a - ga * ((b - a) / (gb - ga))
        if not a < t < b:
            t = 0.5 * (a + b)
        # a domain hiccup lies near an open end: fall toward the finite side
        nan_is_low = math.isinf(hi)
        older = newer = b - a  # the last two step lengths
        radius = 0.0  # of the two probes around t, when they are next
        for _ in range(3 * BISECT_MAX_ITER):
            for p in (t - radius, t + radius) if radius else (t,):
                if not a < p < b:
                    continue
                g = self.gap(p, target)
                if g == 0:
                    return p
                if g < 0 or (nan_is_low and g != g):
                    a = p
                else:
                    b = p
            mid = 0.5 * (a + b)
            if b - a <= BISECT_REL_TOL * max(1.0, abs(mid)):
                return mid
            if radius:  # the probes missed the root: go on from the iterate
                radius = 0.0
                if not a < t < b:
                    t = mid
                continue
            try:
                d = self.slope(t)
            except (ToolkitError, ArithmeticError, ValueError):
                d = math.nan
            step = g / d if 0.0 < d < math.inf else math.nan
            r = BISECT_REL_TOL / 8.0 * max(1.0, abs(t))
            if abs(step) <= r:
                t, radius = t - step, r
            elif a < t - step < b and abs(step) <= 0.5 * older:
                t, older, newer = t - step, newer, abs(step)
            else:
                t, older, newer = mid, newer, 0.5 * (b - a)
        raise MaxIterations("safeguarded Newton did not converge")


#: the 64-node Gauss-Legendre rule on [-1, 1] for the quadrature fallback,
#: as (node, weight) for the 32 positive nodes; the rule is symmetric
_GL_HALF = (
    (0.02435029266342443, 0.048690957009139814),
    (0.07299312178779904, 0.04857546744150351),
    (0.12146281929612054, 0.048344762234802996),
    (0.16964442042399283, 0.04799938859645842),
    (0.21742364374000708, 0.04754016571483042),
    (0.2646871622087674, 0.046968182816210076),
    (0.31132287199021097, 0.04628479658131447),
    (0.3572201583376681, 0.045491627927418184),
    (0.4022701579639916, 0.044590558163756566),
    (0.4463660172534641, 0.04358372452932355),
    (0.48940314570705296, 0.04247351512365361),
    (0.5312794640198946, 0.041262563242623576),
    (0.571895646202634, 0.039953741132720544),
    (0.6111553551723933, 0.03855015317861564),
    (0.6489654712546573, 0.03705512854024009),
    (0.6852363130542333, 0.0354722132568823),
    (0.7198818501716109, 0.033805161837141794),
    (0.7528199072605319, 0.032057928354851495),
    (0.7839723589433414, 0.030234657072402554),
    (0.8132653151227975, 0.028339672614259535),
    (0.8406292962525803, 0.02637746971505491),
    (0.8659993981540928, 0.0243527025687112),
    (0.8893154459951141, 0.02227017380838297),
    (0.9105221370785028, 0.020134823153530088),
    (0.9295691721319396, 0.017951715775697284),
    (0.9464113748584028, 0.01572603047602503),
    (0.9610087996520538, 0.01346304789671786),
    (0.973326827789911, 0.011168139460131028),
    (0.983336253884626, 0.008846759826363397),
    (0.9910133714767443, 0.006504457968978502),
    (0.9963401167719552, 0.004147033260564499),
    (0.9993050417357722, 0.00178328072169414),
)
#: the whole rule, nodes ascending, which fixes the order each panel sums in
_GL_NODES = tuple(-t for t, _ in reversed(_GL_HALF)) + tuple(t for t, _ in _GL_HALF)
_GL_WEIGHTS = tuple(w for _, w in reversed(_GL_HALF)) + tuple(w for _, w in _GL_HALF)


def _legendre(k: int, t: float) -> float:
    """P_k(t), k >= 1, by the three-term recurrence."""
    p, q = 1.0, t
    for j in range(1, k):
        p, q = q, ((2 * j + 1) * t * q - j * p) / (j + 1)
    return q


#: weights on a panel's samples that give the last two Legendre
#: coefficients of the polynomial through them
_GL_TAIL = tuple(tuple((k + 0.5) * w * _legendre(k, t) for t, w in zip(_GL_NODES, _GL_WEIGHTS))
                 for k in (len(_GL_NODES) - 2, len(_GL_NODES) - 1))


def _composite(f: Callable[[float], float], a: float, b: float, panels: int, splits: int) -> float:
    """Gauss-Legendre rule on equal panels of [a, b], summed in one pass in
    node order.  A panel whose last two Legendre coefficients exceed
    QUAD_TAIL_TOL of max(1, its largest sample) holds more than the rule
    resolves, and is ruled again on two halves, at most ``splits`` deep
    (NaN and inf samples never split: halving does not help them)."""
    total = 0.0
    halved: list[float] = []
    width = (b - a) / panels
    for k in range(panels):
        lo = a + k * width
        mid = lo + width / 2.0
        half = width / 2.0
        vals = [f(mid + half * t) for t in _GL_NODES]
        tail = sum(abs(sum(map(operator.mul, c, vals))) for c in _GL_TAIL)
        if splits and tail > QUAD_TAIL_TOL * max(1.0, *map(abs, vals)):
            halved.append(_composite(f, lo, lo + width, 2, splits - 1))
            continue
        for w, v in zip(_GL_WEIGHTS, vals):
            total += w * v
    return sum(halved, total * (width / 2.0))


class _InverseIntegral:
    """The closed form of a NumericIntegral of g^-1 with a primitive G of
    g under one binding: the solver of g^-1 and the float kernel of G,
    and the base term a*g^-1(a) - G(g^-1(a)), all built once."""

    __slots__ = ("inverse", "solver", "primitive", "start")

    def __init__(self, node: NumericIntegral, params):
        self.inverse = node.integrand
        self.solver = _solver(node.integrand, params)
        self.primitive = float_kernel(node.primitive, params)
        self.start = self.term(float(evaluate(node.base, None, params)))

    def term(self, y: float) -> float:
        """y*g^-1(y) - G(g^-1(y)): one solve, through ``_eval_implicit``."""
        t = _eval_implicit(self.inverse, y, None, self.solver)
        return y * t - self.primitive(t)


def _integral_form(node: NumericIntegral, params) -> _InverseIntegral | None:
    """The closed form of node under params, from the solver cache; None
    without a primitive, or where the base term raises or is not finite."""
    return None if node.primitive is None else _cached(node, params, _build_integral)


def _build_integral(node: NumericIntegral, params) -> _InverseIntegral | None:
    try:
        form = _InverseIntegral(node, params)
    except (ToolkitError, ArithmeticError, ValueError):
        return None
    return form if math.isfinite(form.start) else None


def _eval_integral(node: NumericIntegral, a: float, b: float, params, form: _InverseIntegral | None) -> float:
    """The value of node at b from its base a: by its closed form ``form``
    (``_integral_form``), or by quadrature where there is none, where it
    raises or is not finite, and for a == b (0.0).  The walk and the
    kernel both read the node here."""
    if form is not None and a != b:
        try:
            v = form.term(b) - form.start
        except (ToolkitError, ArithmeticError, ValueError):
            v = math.nan
        if math.isfinite(v):
            return v
    return _eval_quadrature(node.integrand, a, b, params)


def _eval_quadrature(integrand: Expr, a: float, b: float, params) -> float:
    """Integral of ``integrand`` over [a, b], one panel per unit of length
    (64 at most)."""
    if a == b:
        return 0.0
    panels = max(1, min(64, int(abs(b - a)) + 1))
    return _composite(float_kernel(integrand, params), a, b, panels, QUAD_MAX_SPLITS)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Structural derivative with respect to the variable.

    An abs of the variable has no derivative here; parsing removes it
    before differentiation ever happens (``grid.cover_bodies``).  An abs
    free of the variable is a constant.
    """
    if isinstance(e, (Const, Param)):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg))
    if isinstance(e, Abs):
        if not contains_var(e.arg):
            return ZERO
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
