"""Assumption environments over symbolic parameters.

An environment holds facts of the form ``lhs < rhs`` or ``lhs <= rhs``
where both sides are affine in the parameters with rational
coefficients.  Comparisons are decided soundly by Fourier-Motzkin
elimination: the answer Less/Equal/Greater is returned only when the
facts *prove* it; anything else is Undecidable.  An environment whose
closure derives a < a raises InconsistentEnv at construction.

Each environment keeps a memo of its decisions: ``compare`` by the
simplified difference, and ``limits._limit_core`` by its key.  Both are
pure functions of the environment and their key, float decisions at
``numeric.binding`` included, so each is taken once per environment
and expression.  A decision that raises is not kept.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InconsistentEnv, InputError, UndecidableComparison
from .expr import Const, Expr, Number, Sub, contains_var, parse_expr, to_text
from .simplify import as_param_affine, simplify

#: decisions an environment keeps before its memo is cleared
ENV_MEMO_SIZE = 4096
_MISSING = object()


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDABLE = "undecidable"


@dataclass(frozen=True)
class _Constraint:
    """sum(coeffs[p] * p) + const >= 0, strictly when ``strict``."""

    coeffs: tuple[tuple[str, Fraction], ...]
    const: Fraction
    strict: bool

    def coeff_map(self) -> dict[str, Fraction]:
        return dict(self.coeffs)


def _make_constraint(coeffs: dict[str, Fraction], const: Fraction, strict: bool) -> _Constraint:
    items = tuple(sorted((p, c) for p, c in coeffs.items() if c != 0))
    return _Constraint(items, const, strict)


def _combine(lower: _Constraint, upper: _Constraint, p: str) -> _Constraint:
    """Nonnegative combination eliminating parameter p.

    lower has coeff a > 0, upper has coeff b < 0; (-b)*lower + a*upper
    cancels p and stays a valid consequence.
    """
    a = lower.coeff_map()[p]
    b = upper.coeff_map()[p]
    out: dict[str, Fraction] = {}
    for name, c in lower.coeffs:
        out[name] = out.get(name, Fraction(0)) + (-b) * c
    for name, c in upper.coeffs:
        out[name] = out.get(name, Fraction(0)) + a * c
    const = (-b) * lower.const + a * upper.const
    return _make_constraint(out, const, lower.strict or upper.strict)


def _infeasible(constraints: list[_Constraint]) -> bool:
    """True when the constraint system has no solution."""
    cs = list(constraints)
    params = sorted({p for c in cs for p, _ in c.coeffs})
    for p in params:
        lowers = [c for c in cs if c.coeff_map().get(p, 0) > 0]
        uppers = [c for c in cs if c.coeff_map().get(p, 0) < 0]
        rest = [c for c in cs if c.coeff_map().get(p, 0) == 0]
        combined = [_combine(lo, up, p) for lo in lowers for up in uppers]
        cs = rest + combined
        if len(cs) > 4000:  # tiny systems in practice; guard pathologies
            cs = list(dict.fromkeys(cs))
    for c in cs:
        if c.coeffs:
            continue
        if c.const < 0 or (c.strict and c.const == 0):
            return True
    return False


def _parse_fact(text: str) -> tuple[Expr, str, Expr]:
    for rel in ("<=", "<"):
        if rel in text:
            lhs, rhs = text.split(rel, 1)
            if any(r in rhs for r in ("<", "<=", ">", ">=")):
                raise InputError(f"chained relations are not allowed in fact {text!r}")
            return parse_expr(lhs), rel, parse_expr(rhs)
    raise InputError(f"assumption {text!r} must use '<' or '<='")


@dataclass(frozen=True)
class AssumptionEnv:
    """An immutable set of parameter facts.

    The environment keeps the decisions taken under it (``memo``), so a
    comparison or a one-sided limit asked again is not decided again.
    """

    facts: tuple[tuple[str, str, str], ...] = ()  # printable (lhs, rel, rhs)
    _constraints: tuple[_Constraint, ...] = field(default=(), repr=False)
    # the feasible point, cached by numeric.binding
    _binding: Mapping[str, Fraction] | None = field(default=None, init=False, repr=False, compare=False)
    # decisions taken under these facts, read and kept through ``memo``
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def empty() -> "AssumptionEnv":
        return AssumptionEnv()

    @staticmethod
    def parse(facts: list[str] | tuple[str, ...]) -> "AssumptionEnv":
        env = AssumptionEnv()
        for fact in facts:
            env = env.assume(fact)
        return env

    def assume(self, fact: str) -> "AssumptionEnv":
        """Extend with one fact string like ``0 < l`` or ``a <= b``."""
        lhs, rel, rhs = _parse_fact(fact)
        for side in (lhs, rhs):
            if contains_var(side):
                raise InputError(f"assumption {fact!r} mentions the variable; facts relate parameters only")
        diff = simplify(Sub(rhs, lhs))
        aff = as_param_affine(diff)
        if aff is None:
            raise InputError(f"assumption {fact!r} is not affine in the parameters")
        coeffs, const = aff
        cons = _make_constraint(coeffs, const, strict=(rel == "<"))
        new = AssumptionEnv(
            self.facts + ((to_text(lhs), rel, to_text(rhs)),),
            self._constraints + (cons,),
        )
        if _infeasible(list(new._constraints)):
            raise InconsistentEnv(
                f"assumptions are contradictory after adding {fact!r} (a strict a < a is derivable)"
            )
        return new

    def merge(self, other: "AssumptionEnv") -> "AssumptionEnv":
        """self with the facts of other it lacks; self itself (and its
        memo) when other adds none."""
        env = self
        for (lhs, rel, rhs), cons in zip(other.facts, other._constraints):
            if cons in env._constraints:
                continue
            env = AssumptionEnv(env.facts + ((lhs, rel, rhs),), env._constraints + (cons,))
        if env is self:
            return self
        if _infeasible(list(env._constraints)):
            raise InconsistentEnv("merged assumption sets are contradictory")
        return env

    # -- the memo ---------------------------------------------------------

    def memo(self, key, decide):
        """decide(), kept under key: a key asked again is answered from
        the memo.  A decision that raises is not kept; the memo is
        cleared when it holds ENV_MEMO_SIZE decisions."""
        memo = self._memo
        out = memo.get(key, _MISSING)
        if out is not _MISSING:
            return out
        out = decide()
        if len(memo) >= ENV_MEMO_SIZE:
            memo.clear()
        memo[key] = out
        return out

    # -- comparisons ------------------------------------------------------

    def compare(self, a: "Expr | Number | int", b: "Expr | Number | int") -> Ordering:
        """Three-way comparison of variable-free expressions, sound except
        for a parameter-free irrational difference, which is decided in
        floats and is UNDECIDABLE when it lies within the float tolerance
        of 0 (``numeric.difference_order``).  A rational difference is
        read at once; any other is decided once per environment."""
        from .expr import as_expr

        ea, eb = as_expr(a), as_expr(b)
        diff = simplify(Sub(eb, ea))
        if isinstance(diff, Const):
            v = diff.value
            if v == 0:
                return Ordering.EQUAL
            return Ordering.LESS if v > 0 else Ordering.GREATER
        return self.memo(diff, lambda: self._decide(diff))

    def _decide(self, diff: Expr) -> Ordering:
        """The order of a and b from their simplified, non-constant
        difference b - a."""
        aff = as_param_affine(diff)
        if aff is not None:
            coeffs, const = aff
            if not coeffs:
                if const == 0:
                    return Ordering.EQUAL
                return Ordering.LESS if const > 0 else Ordering.GREATER
            base = list(self._constraints)
            neg = {p: -c for p, c in coeffs.items()}
            # assume diff <= 0; infeasible means diff > 0 everywhere
            if _infeasible(base + [_make_constraint(neg, -const, strict=False)]):
                return Ordering.LESS
            if _infeasible(base + [_make_constraint(dict(coeffs), const, strict=False)]):
                return Ordering.GREATER
            if _infeasible(base + [_make_constraint(dict(coeffs), const, strict=True)]) and _infeasible(
                base + [_make_constraint(neg, -const, strict=True)]
            ):
                return Ordering.EQUAL
            return Ordering.UNDECIDABLE
        if not diff_has_params(diff):
            # parameter-free but irrational (exp(1) and friends): decided in floats
            from .numeric import difference_order

            return difference_order(diff)
        sign = self.sign_of(diff)
        if sign is not None:
            if sign == 0:
                return Ordering.EQUAL
            return Ordering.LESS if sign > 0 else Ordering.GREATER
        return Ordering.UNDECIDABLE

    def sign_of(self, e: Expr) -> int | None:
        """Structural sign of a variable-free expression: 1, -1, 0 or None."""
        from .expr import Abs, Exp, Mul, Neg, Pow, pow_sign

        s = simplify(e)
        if isinstance(s, Const):
            return 0 if s.value == 0 else (1 if s.value > 0 else -1)
        aff = as_param_affine(s)
        if aff is not None:
            order = self.compare(0, s)
            if order == Ordering.LESS:
                return 1
            if order == Ordering.GREATER:
                return -1
            if order == Ordering.EQUAL:
                return 0
            return None
        if isinstance(s, Exp):
            return 1
        if isinstance(s, Neg):
            inner = self.sign_of(s.arg)
            return None if inner is None else -inner
        if isinstance(s, Abs):
            return 1  # simplify folds |const| already; arg nonconstant
        if isinstance(s, Mul):
            l, r = self.sign_of(s.left), self.sign_of(s.right)
            if l is None or r is None:
                return None
            return l * r
        if isinstance(s, Pow):
            return pow_sign(self.sign_of(s.base), s.exponent)
        return None

    def require_comparable(self, a, b) -> Ordering:
        order = self.compare(a, b)
        if order == Ordering.UNDECIDABLE:
            raise UndecidableComparison(_show(a), _show(b))
        return order

    def admits(self, binding: dict[str, Fraction]) -> bool:
        """Whether the facts hold for the bound parameters together with
        some values of the unbound ones."""
        constraints = list(self._constraints)
        for p, val in binding.items():
            constraints = [_substitute_param(c, p, val) for c in constraints]
        return not _infeasible(constraints)

    # -- feasible points --------------------------------------------------

    def feasible_point(self) -> dict[str, Fraction]:
        """A rational parameter assignment satisfying every fact.

        Exists because the environment is consistent.  Read it through
        ``numeric.binding``, which computes it once per environment and
        takes every float decision at it.
        """
        remaining = list(self._constraints)
        params = sorted({p for c in remaining for p, _ in c.coeffs})
        assignment: dict[str, Fraction] = {}
        for p in params:
            others = [q for q in params if q != p and q not in assignment]
            projected = list(remaining)
            for q in others:
                lowers = [c for c in projected if c.coeff_map().get(q, 0) > 0]
                uppers = [c for c in projected if c.coeff_map().get(q, 0) < 0]
                rest = [c for c in projected if c.coeff_map().get(q, 0) == 0]
                projected = rest + [_combine(lo, up, q) for lo in lowers for up in uppers]
            lo: tuple[Fraction, bool] | None = None
            hi: tuple[Fraction, bool] | None = None
            for c in projected:
                coef = c.coeff_map().get(p, Fraction(0))
                if coef == 0:
                    continue
                bound = -c.const / coef
                if coef > 0:
                    if lo is None or bound > lo[0] or (bound == lo[0] and c.strict):
                        lo = (bound, c.strict)
                else:
                    if hi is None or bound < hi[0] or (bound == hi[0] and c.strict):
                        hi = (bound, c.strict)
            if lo is not None and hi is not None:
                val = (lo[0] + hi[0]) / 2
                if val == lo[0] and lo[1]:
                    val = (lo[0] * 3 + hi[0]) / 4
            elif lo is not None:
                val = lo[0] + 1
            elif hi is not None:
                val = hi[0] - 1
            else:
                val = Fraction(1)
            assignment[p] = val
            remaining = [_substitute_param(c, p, val) for c in remaining]
        return assignment


def _substitute_param(c: _Constraint, p: str, val: Fraction) -> _Constraint:
    coeffs = c.coeff_map()
    coef = coeffs.pop(p, Fraction(0))
    return _make_constraint(coeffs, c.const + coef * val, c.strict)


def diff_has_params(e: Expr) -> bool:
    from .expr import param_names

    return bool(param_names(e))


def _show(v) -> str:
    if isinstance(v, Expr):
        return to_text(v)
    return str(v)


EMPTY_ENV = AssumptionEnv()
