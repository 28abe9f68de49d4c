"""Every decision the library takes in floats at one parameter binding.

Exact algebra decides what it can; where it runs out, the decision
falls back to floats at the *binding*, one rational assignment that
satisfies every fact of the environment.  Such a verdict holds at that
binding, not for every binding the facts allow.  This module is the
only reader of ``AssumptionEnv.feasible_point`` (through ``binding``,
once per environment) and holds the one float coercion (``value``,
``at``, ``defined``), the one read of a body at a point (``body_at``),
the one extended-real order (``order``, ``less``, ``equal``,
``difference_order``, ``sort_key``), the one clip and Chebyshev
sampler (``clip``, ``sample``), the one tie rule for sampled values
(``step``) and the one sign probe (``sign``).
A float decision in ``AssumptionEnv.compare`` or in
``limits._limit_core`` is taken once per (environment, expression): the
environment keeps it (``AssumptionEnv.memo``), as it keeps its binding.

The float decisions that remain, by caller:

* ``AssumptionEnv.compare``: a parameter-free irrational difference
  (``difference_order``); within the tolerance band it is undecidable.
* ``pwf.classify_piece``: convexity from derivative samples (``sample``,
  window CLASSIFY_WINDOW); ``inverse.check_strictly_monotone``:
  monotonicity from samples (``sample``, window GUARD_CLIP).  Both read
  consecutive samples through ``step``, one tie rule: values within
  TIE_ULPS ulps are neither a rise nor a fall.  Both run
  once, on input only (``grid.certify``: parsed pieces, the distributions
  of ``risk``, f + x^2/2 in ``penalty.verify_penalty``).  Both sample
  only the bodies that ``inverse.derivative_signs`` cannot decide
  exactly: bodies that are not polynomials in x, polynomials with a float
  constant, with parameters in a coefficient of the derivative when
  that derivative is not one coefficient, or with an end that is not an
  exact rational (parameters, floats), unless the derivative keeps one
  sign on the whole line.  ``sample`` reads its NODES points through
  ``expr.float_kernel`` bound once at the binding, which gives bit for
  bit the floats ``at`` gives there.
* ``inverse._sign_on_interval``: the sign at a cell midpoint (``clip``
  with GUARD_CLIP, ``sign``), which picks root branches in
  ``inverse._peel`` and abs and log branches in ``conv.antiderivative``.
* ``limits._probe``, ``_side_sign``, ``_sign_of_value``,
  ``one_sided_limit`` and ``_limit_core``: numeric limits, signs, and
  the float check of a substituted limit point (``at``, ``sign``).
* ``grid.sorted_unique``: the order of points that exact comparison
  found distinct (``sort_key``), among them the roots of absolute
  values that ``pwf._assemble_parts`` adds to the cover.
* ``pwf.validate``, ``pwf._default_value``, ``grid.merge_seamless``,
  ``monop.interval``, ``monop.validate_operator``, ``monop.sv_hull``,
  ``risk._cdf_operator``, ``risk._check_p`` and ``risk.quantile``:
  values, limits and endpoints that ``env.compare`` cannot order
  (``order``, ``less``, ``equal``).
* ``body_at``: a body with an implicit inverse or quadrature node read
  at a point.  Its callers: ``grid.Grid.at``, the grid reader
  (``monop.add``, ``conv.conjugate``, ``risk.superquantile``),
  ``grid.merge_seamless``, ``conv._end_value``, ``conv._anchor_shift``
  (the anchor of ``conv.integ``) and ``inverse.solve_monotone``
  (``risk.quantile``).
* ``conv._body_limit``: limits the limits module cannot take (``value``).
* ``penalty.verify_penalty`` and its graph sampler
  ``oracle.sample_graph``: graph samples and distances (``value``,
  ``clip``, ``defined``).  Both read a grid at many float points
  through ``grid.Grid.float_view``: float breakpoints and one
  ``expr.float_kernel`` per piece at the binding.  A point near a
  breakpoint, or where a kernel has no value, is read exactly instead
  (``monop.eval_op``).

Implicit inverses (``expr._eval_implicit``: Newton's method safeguarded
by bisection, one solver per node and binding) and integrals run at
whatever parameters they are given, through ``expr.float_kernel`` as
well.  An integral of an implicit inverse whose forward map has a
primitive (``conv.integ`` keeps one) is read in closed form, one solve
per value (``expr._eval_integral``); any other, and any point where the
closed form has no finite value, by quadrature
(``expr._eval_quadrature``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .assumptions import AssumptionEnv, Ordering
from .errors import DomainError, UnboundParameter, UndecidableComparison
from .expr import Const, Expr, as_expr, evaluate, float_kernel, is_numeric_node, substitute, to_text
from .simplify import simplify, structurally_equal

REL_TOL = 1e-9
NODES = 33
# sampled values this many units in the last place apart count as equal:
# far out, a slope that flattens to +-1 wobbles in its last digit
TIE_ULPS = 4


def binding(env: AssumptionEnv) -> Mapping[str, Fraction]:
    """The feasible parameter binding of env, read-only; computed on
    first use and kept on the environment."""
    b = env._binding
    if b is None:
        b = MappingProxyType(env.feasible_point())
        object.__setattr__(env, "_binding", b)
    return b


# ---------------------------------------------------------------------------
# Float coercion
# ---------------------------------------------------------------------------


def value(v, params: Mapping, x=None) -> float:
    """v as a float under params, with the variable at x.  v is an Expr,
    a number, or a +-inf float (returned as is); x is a float, an Expr
    (coerced the same way first), or None.  Evaluation errors propagate.
    A constant is read without the tree walk, to the same float."""
    if isinstance(v, float):
        return v
    if isinstance(x, Expr):
        x = value(x, params)
    c = v.value if isinstance(v, Const) else v
    if type(c) in (int, Fraction, float):
        return float(c)
    return float(evaluate(as_expr(v), x=x, params=params))


def body_at(body: Expr, x: Expr, env: AssumptionEnv, params: Mapping | None = None) -> Expr:
    """body with the variable at the point x: the exact substitution,
    or, for a body holding an implicit inverse or quadrature node (whose
    variable is an implicit argument no substitution reaches), its float
    there at env's binding, as a constant.  ``params``, when given, are
    substituted first and are then the only binding: an evaluation at
    the caller's parameters, where one left unbound raises."""
    if not is_numeric_node(body):
        return simplify(substitute(body, var=x, params=params))
    if params is None:
        return as_expr(value(body, binding(env), x))
    # no substitution without parameters: the body's own numeric nodes
    # keep their solvers (``expr._cached``)
    return as_expr(value(substitute(body, params=params) if params else body, {}, x))


def at(v, params: Mapping, x=None) -> float | None:
    """``value``, or None where v has no value there (a domain error,
    overflow or NaN).  An unbound parameter and an implicit inverse that
    cannot converge still raise."""
    return defined(value, v, params, x)


def defined(fn, *args) -> float | None:
    """fn(*args), or None where that raises a domain error or overflow
    or gives NaN."""
    try:
        f = fn(*args)
    except (DomainError, ArithmeticError, ValueError):
        return None
    return None if math.isnan(f) else f


# ---------------------------------------------------------------------------
# Extended-real order
# ---------------------------------------------------------------------------


def is_inf(v) -> bool:
    """Whether v is the float +inf or -inf."""
    return isinstance(v, float) and math.isinf(v)


def _float_order(fa: float | None, fb: float | None) -> Ordering:
    """LESS or GREATER when fa and fb differ by more than REL_TOL
    relative to the larger magnitude, else EQUAL; UNDECIDABLE when
    either is missing."""
    if fa is None or fb is None:
        return Ordering.UNDECIDABLE
    tol = REL_TOL * (1.0 + max(abs(fa), abs(fb)))
    if fa < fb - tol:
        return Ordering.LESS
    if fb < fa - tol:
        return Ordering.GREATER
    return Ordering.EQUAL


def _at_binding(env: AssumptionEnv, v) -> float | None:
    """``at`` the binding, and None for a parameter the facts do not mention."""
    try:
        return at(v, binding(env))
    except UnboundParameter:
        return None


def order(env: AssumptionEnv, a, b) -> Ordering:
    """Order of a and b (Exprs or +-inf floats): infinities first, then
    ``env.compare``, then floats at the binding, where values within
    REL_TOL are EQUAL and values without a float are UNDECIDABLE."""
    if is_inf(a) or is_inf(b):
        if a == b:
            return Ordering.EQUAL
        return Ordering.LESS if a == -math.inf or b == math.inf else Ordering.GREATER
    decided = env.compare(as_expr(a), as_expr(b))
    if decided != Ordering.UNDECIDABLE:
        return decided
    return _float_order(_at_binding(env, a), _at_binding(env, b))


def less(env: AssumptionEnv, a, b) -> bool:
    """a < b in the extended reals, by ``order``."""
    return order(env, a, b) == Ordering.LESS


def equal(env: AssumptionEnv, a, b) -> bool:
    """a = b in the extended reals: exactly for two exact constants (int
    or Fraction, an integral value being either), then structurally,
    then in floats at the binding; never ``env.compare``."""
    if is_inf(a) or is_inf(b):
        return a == b
    ea, eb = as_expr(a), as_expr(b)
    if isinstance(ea, Const) and isinstance(eb, Const):
        if not isinstance(ea.value, float) and not isinstance(eb.value, float):
            return ea.value == eb.value
    if structurally_equal(ea, eb):
        return True
    return _float_order(_at_binding(env, ea), _at_binding(env, eb)) == Ordering.EQUAL


def difference_order(diff: Expr) -> Ordering:
    """The order of a and b from their parameter-free difference
    b - a in floats: LESS or GREATER outside the REL_TOL band around 0,
    UNDECIDABLE inside it (a float cannot tell a tiny difference from
    none) or where it has no float value."""
    decided = _float_order(0.0, at(diff, {}))
    return Ordering.UNDECIDABLE if decided == Ordering.EQUAL else decided


def sort_key(env: AssumptionEnv):
    """Sort key for points that exact comparison found distinct: their
    floats at the binding.  A point without one raises
    UndecidableComparison."""

    def key(e: Expr) -> float:
        v = _at_binding(env, e)
        if v is None:
            raise UndecidableComparison(to_text(e), "other breakpoints")
        return v

    return key


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def clip(env: AssumptionEnv, lo, hi, window: float) -> tuple[float, float] | None:
    """The interval (lo, hi) at the binding, clipped to [-window, window];
    an interval beyond the window gives a strip of width 1 at its near
    end.  None when an end has no float value or the interval is empty."""
    params = binding(env)
    lof, hif = at(lo, params), at(hi, params)
    if lof is None or hif is None or not lof < hif:
        return None
    lo_c, hi_c = max(lof, -window), min(hif, window)
    if lo_c < hi_c:
        return lo_c, hi_c
    if lof >= window:
        return lof, min(hif, lof + 1.0)
    return max(lof, hif - 1.0), hif


def sample(e: Expr, env: AssumptionEnv, lo, hi, window: float) -> list[tuple[float, float | None]] | None:
    """(x, e(x)) at NODES Chebyshev nodes of the clipped interval, in
    increasing x, with None where e has no value; None when the interval
    cannot be clipped."""
    clipped = clip(env, lo, hi, window)
    if clipped is None:
        return None
    mid, half = 0.5 * (clipped[0] + clipped[1]), 0.5 * (clipped[1] - clipped[0])
    xs = [mid + half * math.cos(math.pi * (k + 0.5) / NODES) for k in range(NODES)][::-1]
    f = float_kernel(e, binding(env))
    return [(x, defined(f, x)) for x in xs]


def step(prev: float, v: float) -> int:
    """The trend from one sampled value to the next: 1 for a rise, -1 for
    a fall, 0 for a tie, two values within TIE_ULPS units in the last
    place."""
    d = v - prev
    if math.isinf(d) or abs(d) > TIE_ULPS * math.ulp(max(abs(v), abs(prev))):
        return 1 if d > 0 else -1
    return 0


def sign(e: Expr, env: AssumptionEnv, xs=(None,)) -> int | None:
    """1 or -1 when e has that sign at every probe point in xs where it
    has a value, 0 when the signs differ or a value is 0, None when no
    point gives a value.  The default probes a variable-free e once."""
    params = binding(env)
    vals = [v for x in xs if (v := at(e, params, x)) is not None]
    if not vals:
        return None
    if all(v > 0 for v in vals):
        return 1
    if all(v < 0 for v in vals):
        return -1
    return 0
