"""Breakpoint grids: the layout shared by functions and operators.

A grid over one real variable stores

* ``breakpoints``: variable-free expressions b_0 < b_1 < ... < b_{n-1},
  strictly increasing under the grid's assumption environment;
* ``pieces``: one Piece per open cell, ``len(pieces) == len(breakpoints) + 1``;
  cell i is the open interval (b_{i-1}, b_i) with b_{-1} = -inf and
  b_n = +inf;
* ``values``: one payload per breakpoint, ``len(values) == len(breakpoints)``.

Slices number cells and breakpoints together from left to right: slice
2i is cell i and slice 2i + 1 is breakpoint i, so a grid with n
breakpoints has 2n + 1 slices.

A Piece is its body and nothing else: what kind of piece it is (affine,
constant, ...) is read from the body by whoever needs it.  A piecewise
function stores an extended-real value at each breakpoint (+inf outside
the domain) and an infinite piece outside the domain; a monotone
operator stores a closed SetValue at each breakpoint and an empty piece
where its graph has no points.  This module holds what the two share:
the Piece and Grid types, the one certification pass over input pieces
(``certify``), breakpoint checks and merging, the point locator and
exact reader (``Grid.locate``, ``Grid.at``), the float reader for loops
over many float points (``Grid.float_view``), the guard DSL from branch
parsing to cell cover, and the one-sided limits beside an uncovered
breakpoint (``limits_beside``).

Absolute values of the variable end here, for every kind of input
(functions, distribution functions, operators, quantile functions):
``cover_bodies`` lays parsed bodies on the cover with each root of an
abs argument as a breakpoint, and each cell's body holds the abs with
the sign its argument takes there.  So every transform reads bodies
without an abs of the variable, and a body that is flat on part of its
cell never reaches a certifier as one piece.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from . import numeric
from .assumptions import AssumptionEnv, Ordering
from .errors import GapInGuards, InputError, OverlappingGuards, ParseError, ToolkitError, UndecidableComparison
from .expr import (
    Abs,
    Expr,
    Neg,
    TokenStream,
    X,
    as_expr,
    contains_var,
    float_kernel,
    map_children,
    substitute,
    to_text,
    tokenize,
    walk,
    _parse_expr,
)
from .limits import one_sided_limit
from .simplify import affine_parts, simplify, structurally_equal

INF = math.inf

# a float point this close to a float breakpoint b, relative to max(1, |b|),
# is read exactly: the float of b may sit on either side of b itself
BREAKPOINT_BAND = 1e-12

RESERVED_VARS = ("x", "y", "p")


@dataclass(frozen=True)
class Piece:
    """One open-cell piece: a finite body, or None where a function is
    +inf or an operator is empty."""

    body: Expr | None

    @property
    def empty(self) -> bool:
        return self.body is None


def kept(obj, name: str, make: Callable):
    """The transform ``name`` of the frozen object obj: ``make()``,
    computed on first use and kept in ``obj._kept``.  That field is
    neither compared, hashed, printed nor copied by
    ``dataclasses.replace``, so a kept value lives exactly as long as obj.
    A ``make`` that raises keeps nothing."""
    value = obj._kept.get(name)
    if value is None:
        value = obj._kept[name] = make()
    return value


def cell(breakpoints, i: int) -> tuple[Expr | float, Expr | float]:
    """Open interval (lo, hi) of cell i."""
    lo = breakpoints[i - 1] if i > 0 else -INF
    hi = breakpoints[i] if i < len(breakpoints) else INF
    return lo, hi


@dataclass(frozen=True)
class Grid:
    """Breakpoints, pieces and breakpoint values over one variable, as
    laid out in the module docstring."""

    varname: str
    breakpoints: tuple[Expr, ...]
    pieces: tuple[Piece, ...]
    values: tuple
    env: AssumptionEnv
    # transforms of this grid, read and kept through ``kept``
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def value_empty(v) -> bool:
        """Whether a breakpoint value holds no point of the object."""
        raise NotImplementedError

    @staticmethod
    def value_point(v) -> Expr | None:
        """The one finite point a breakpoint value holds, or None."""
        raise NotImplementedError

    @staticmethod
    def piece_value(body: Expr | None):
        """A piece read at a point, as a breakpoint value: ``body`` is the
        body there, or None for an empty piece."""
        raise NotImplementedError

    def interval(self, i: int) -> tuple[Expr | float, Expr | float]:
        """Open interval spanned by piece i."""
        return cell(self.breakpoints, i)

    def slices(self) -> list:
        """Piece or value of every slice, left to right."""
        n = len(self.breakpoints)
        return [self.values[s // 2] if s % 2 else self.pieces[s // 2] for s in range(2 * n + 1)]

    def live_slices(self) -> list[int]:
        """Indices of the slices that hold points of the object."""
        return [
            s
            for s, item in enumerate(self.slices())
            if not (self.value_empty(item) if s % 2 else item.empty)
        ]

    def locate(self, x: Expr, params=None, env: AssumptionEnv | None = None) -> tuple[str, int]:
        """("breakpoint", i) when x equals breakpoint i, else ("piece", i)
        for the cell i containing x; breakpoints take ``params`` first."""
        env = self.env if env is None else env
        for i, b in enumerate(self.breakpoints):
            bb = simplify(substitute(b, params=params)) if params else b
            order = env.compare(x, bb)
            if order == Ordering.UNDECIDABLE:
                raise UndecidableComparison(to_text(x), to_text(bb))
            if order == Ordering.EQUAL:
                return "breakpoint", i
            if order == Ordering.LESS:
                return "piece", i
        return "piece", len(self.breakpoints)

    def at(self, x: Expr, env: AssumptionEnv | None = None):
        """The value at the point x, under ``env`` in place of the grid's
        own: the breakpoint value, or the piece there read at x
        (``numeric.body_at``) as a breakpoint value."""
        env = self.env if env is None else env
        where, i = self.locate(x, env=env)
        if where == "breakpoint":
            return self.values[i]
        body = self.pieces[i].body
        return self.piece_value(None if body is None else numeric.body_at(body, x, env))

    def float_view(self, binding: Mapping) -> FloatView:
        """The grid read at float points under binding: its breakpoints as
        floats and one ``float_kernel`` per live piece, built once."""
        return FloatView(
            [numeric.value(b, binding) for b in self.breakpoints],
            [None if p.empty else float_kernel(p.body, binding) for p in self.pieces],
        )


@dataclass(frozen=True)
class FloatView:
    """A grid read at many float points under one binding (``Grid.float_view``).

    ``at`` finds a point's cell by bisection on the float breakpoints and
    reads the piece there through its kernel, bit for bit the tree walk.
    The points where floats could decide otherwise than the exact reader
    (``Grid.at``, ``eval_op``) it leaves to that reader."""

    breakpoints: list[float]
    kernels: list[Callable[[float], float] | None]  # None for an empty piece

    def at(self, x: float) -> float | None:
        """The live piece containing x read at x; None where the exact
        reader decides: within BREAKPOINT_BAND of a float breakpoint, in an
        empty piece, or where the kernel raises or gives NaN."""
        bps = self.breakpoints
        i = bisect.bisect_left(bps, x)
        for b in bps[max(i - 1, 0) : i + 1]:
            if abs(x - b) <= BREAKPOINT_BAND * max(1.0, abs(b)):
                return None
        kernel = self.kernels[i]
        if kernel is None:
            return None
        try:
            u = kernel(x)
        except (ToolkitError, ArithmeticError, ValueError):
            return None
        return None if math.isnan(u) else u


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def checked_breakpoints(breakpoints, pieces, values, env: AssumptionEnv) -> list[Expr]:
    """Simplified breakpoints, checked to be variable-free, strictly
    increasing, and consistent with the piece and value counts."""
    bps = [simplify(b) for b in breakpoints]
    for b in bps:
        if contains_var(b):
            raise InputError(f"breakpoint {to_text(b)} contains the variable")
    for i in range(len(bps) - 1):
        if env.require_comparable(bps[i], bps[i + 1]) != Ordering.LESS:
            raise InputError(f"breakpoints out of order: {to_text(bps[i])} vs {to_text(bps[i + 1])}")
    if len(pieces) != len(bps) + 1 or len(values) != len(bps):
        raise InputError("piece/breakpoint/value counts are inconsistent")
    return bps


def piece_body(p) -> Expr | None:
    """Simplified body of a constructor piece argument: a Piece, an Expr,
    or None (or a float infinity) for an empty cell."""
    if isinstance(p, Piece):
        p = p.body
    if p is None or (isinstance(p, float) and math.isinf(p)):
        return None
    return simplify(as_expr(p))


def certify(breakpoints, pieces, env: AssumptionEnv, certifier: Callable, varname: str = "x") -> list:
    """The kind ``certifier(body, env, lo, hi, varname)`` gives each piece
    on its cell, None for an empty one; it raises on a body the grid type
    does not admit.  Run once, before the build, on bodies from outside;
    the grid keeps no kind."""
    return [None if body is None else certifier(body, env, *cell(breakpoints, i), varname)
            for i, body in enumerate(map(piece_body, pieces))]


def merge_seamless(grid_type: type, bps: list, pieces: list, values: list,
                   env: AssumptionEnv) -> tuple[tuple, tuple, tuple]:
    """Drop every breakpoint that separates nothing, joining its two
    pieces into one: two empty pieces around an empty value, or one body
    continued through its own value, the body read at the breakpoint."""
    i = 0
    while i < len(bps):
        left, right, v = pieces[i], pieces[i + 1], values[i]
        if left.empty or right.empty:
            seamless = left.empty and right.empty and grid_type.value_empty(v)
        else:
            p = grid_type.value_point(v) if structurally_equal(left.body, right.body) else None
            seamless = p is not None and numeric.equal(env, p, numeric.body_at(left.body, bps[i], env))
        if seamless:
            del bps[i]
            del values[i]
            pieces[i : i + 2] = [left if not left.empty else right]
        else:
            i += 1
    return tuple(bps), tuple(pieces), tuple(values)


def sorted_unique(points, env: AssumptionEnv) -> list[Expr]:
    """The points without exact duplicates, in increasing order."""
    out: list[Expr] = []
    for e in points:
        if not any(env.require_comparable(e, c) == Ordering.EQUAL for c in out):
            out.append(e)
    out.sort(key=numeric.sort_key(env))
    return out


def index_of(bps: list[Expr], e: Expr, env: AssumptionEnv) -> int:
    for i, c in enumerate(bps):
        if env.require_comparable(e, c) == Ordering.EQUAL:
            return i
    raise InputError("internal: bound not among breakpoints")


# ---------------------------------------------------------------------------
# Guard DSL: pw{ guard -> value ; ... } and sd{ guard -> value ; ... }
# ---------------------------------------------------------------------------


def detect_varname(text: str) -> str:
    """Which reserved variable letter the text uses; 'x' by default."""
    found = {t.text for t in tokenize(text) if t.kind == "IDENT"} & set(RESERVED_VARS)
    if len(found) > 1:
        raise ParseError(f"an expression may use only one variable, found {sorted(found)}", 0)
    return found.pop() if found else "x"


def rebind_var(e: Expr, varname: str) -> Expr:
    """Map the chosen reserved identifier to the variable slot."""
    if varname == "x":
        return e
    return substitute(e, params={varname: X})


@dataclass(frozen=True)
class Region:
    lo: Expr | float
    hi: Expr | float
    lo_closed: bool
    hi_closed: bool

    @property
    def is_point(self) -> bool:
        return (
            not isinstance(self.lo, float)
            and not isinstance(self.hi, float)
            and self.lo is self.hi
            and self.lo_closed
            and self.hi_closed
        )


WHOLE_LINE = Region(-INF, INF, False, False)


def _solve_rel(lhs: Expr, op: str, rhs: Expr, env: AssumptionEnv) -> tuple[str, Expr, bool]:
    """Normalize one relation to a bound on the variable.

    Returns (side, bound, strict) with side in {lo, hi, pt}: lo means
    x > / >= bound, hi means x < / <= bound.
    """
    ab = affine_parts(simplify(lhs - rhs))
    if ab is None:
        raise InputError("guard must be affine in the variable with one occurrence of it")
    a, b = ab
    sign = env.sign_of(a)
    if sign is None or sign == 0:
        raise UndecidableComparison(to_text(a), "0")
    bound = simplify((Neg(b)) / a)
    if op == "=":
        return "pt", bound, False
    # lhs - rhs OP 0  <=>  a*(x - bound) OP 0
    less = op in ("<", "<=")
    strict = op in ("<", ">")
    if sign < 0:
        less = not less
    return ("hi", bound, strict) if less else ("lo", bound, strict)


def parse_guard(ts: TokenStream, env: AssumptionEnv, varname: str) -> Region:
    rels = []
    while True:
        lhs = rebind_var(_parse_expr(ts), varname)
        t = ts.peek()
        if not (t.kind == "OP" and t.text in ("<", "<=", "=", ">=", ">")):
            raise ts.error(("'<'", "'<='", "'='", "'>='", "'>'"))
        op = ts.next().text
        rhs = rebind_var(_parse_expr(ts), varname)
        lhs_has, rhs_has = contains_var(lhs), contains_var(rhs)
        if lhs_has == rhs_has:
            raise InputError("each guard relation must mention the variable on exactly one side")
        rels.append(_solve_rel(lhs, op, rhs, env))
        if ts.at_op("&"):
            ts.next()
            continue
        break
    if len(rels) > 2:
        raise InputError("a guard joins at most two relations")
    if any(side == "pt" for side, _, _ in rels):
        if len(rels) != 1:
            raise InputError("a point guard cannot be combined with '&'")
        _, bound, _ = rels[0]
        return Region(bound, bound, True, True)
    lo: Expr | float = -INF
    hi: Expr | float = INF
    lo_closed = hi_closed = False
    for side, bound, strict in rels:
        if side == "lo":
            if not isinstance(lo, float):
                # two lower bounds: keep the larger
                if env.require_comparable(lo, bound) == Ordering.LESS:
                    lo, lo_closed = bound, not strict
            else:
                lo, lo_closed = bound, not strict
        else:
            if not isinstance(hi, float):
                if env.require_comparable(bound, hi) == Ordering.LESS:
                    hi, hi_closed = bound, not strict
            else:
                hi, hi_closed = bound, not strict
    if not isinstance(lo, float) and not isinstance(hi, float):
        order = env.require_comparable(lo, hi)
        if order == Ordering.GREATER:
            raise InputError("guard region is empty")
        if order == Ordering.EQUAL:
            if lo_closed and hi_closed:
                return Region(lo, lo, True, True)
            raise InputError("guard region is empty")
    return Region(lo, hi, lo_closed, hi_closed)


def parse_branches(text: str, env: AssumptionEnv, keyword: str, parse_value) -> tuple[list, str]:
    """Parse ``keyword{ guard -> value ; ... }`` into (region, value)
    branches, or a bare input into one branch over the whole line.
    ``parse_value(ts, varname, bare)`` reads one value."""
    varname = detect_varname(text)
    ts = TokenStream(text)
    branches: list[tuple[Region, object]] = []
    t = ts.peek()
    if t.kind == "IDENT" and t.text == keyword:
        ts.next()
        ts.expect_op("{")
        while True:
            region = parse_guard(ts, env, varname)
            ts.expect_op("->")
            branches.append((region, parse_value(ts, varname, False)))
            if ts.at_op(";"):
                ts.next()
                if ts.at_op("}"):
                    break
                continue
            break
        ts.expect_op("}")
    else:
        branches.append((WHOLE_LINE, parse_value(ts, varname, True)))
    if ts.peek().kind != "END":
        raise ParseError(f"trailing input {ts.peek().text!r}", ts.peek().offset)
    return branches, varname


def cover(branches, env: AssumptionEnv, extra_points=()) -> tuple[list[Expr], list, list]:
    """Lay branches on a grid.

    Returns the breakpoints (every finite region bound, and
    ``extra_points``), the one value covering each cell, and the value
    covering each breakpoint, or None where no guard covers it.  Raises
    OverlappingGuards for a cell or breakpoint covered twice and
    GapInGuards for an uncovered cell.
    """
    bounds = [e for region, _ in branches for e in (region.lo, region.hi) if not isinstance(e, float)]
    bps = sorted_unique(bounds + list(extra_points), env)
    n_cells = len(bps) + 1
    cell_cover: list[list[object]] = [[] for _ in range(n_cells)]
    bp_cover: list[list[object]] = [[] for _ in bps]
    for region, value in branches:
        if region.is_point:
            bp_cover[index_of(bps, region.lo, env)].append(value)
            continue
        lo_pos = -1 if isinstance(region.lo, float) else index_of(bps, region.lo, env)
        hi_pos = len(bps) if isinstance(region.hi, float) else index_of(bps, region.hi, env)
        for c in range(lo_pos + 1, hi_pos + 1):
            cell_cover[c].append(value)
        for j in range(len(bps)):
            if lo_pos < j < hi_pos or (j == lo_pos and region.lo_closed) or (j == hi_pos and region.hi_closed):
                bp_cover[j].append(value)
    for c, cov in enumerate(cell_cover):
        if len(cov) > 1:
            raise OverlappingGuards(f"interval piece {c} is covered by {len(cov)} guards")
        if not cov:
            lo_s = "-inf" if c == 0 else to_text(bps[c - 1])
            hi_s = "inf" if c == n_cells - 1 else to_text(bps[c])
            raise GapInGuards(f"no guard covers ({lo_s}, {hi_s})")
    for b, cov in zip(bps, bp_cover):
        if len(cov) > 1:
            raise OverlappingGuards(f"breakpoint {to_text(b)} is covered by {len(cov)} guards")
    return bps, [cov[0] for cov in cell_cover], [cov[0] if cov else None for cov in bp_cover]


def cover_bodies(branches, env: AssumptionEnv, varname: str) -> tuple[list[Expr], list[int], list, list]:
    """Lay (region, body) branches on a grid by ``cover``, each absolute
    value of the variable resolved; a body of None stands for a branch
    without one (+inf, empty, a set).  The one place where an absolute
    value of the variable ends: its argument must be affine, with no
    absolute value inside, and the root of an absolute value that lies
    strictly inside its branch is a breakpoint of the cover, so each
    cell's body holds the absolute value with the sign its argument takes
    there.  A point branch keeps its body, read at one point.

    Returns the breakpoints, the branch index on each cell, the branch
    index at each breakpoint (None where no guard covers it) and the body
    on each cell."""
    roots = [[] if body is None or region.is_point else _abs_roots(body, env, varname)
             for region, body in branches]
    inner = [r for (region, _), rs in zip(branches, roots) for _, r, _ in rs if _strictly_inside(r, region, env)]
    bps, cells, at = cover([(region, k) for k, (region, _) in enumerate(branches)], env, inner)
    bodies = [_cell_body(branches[k][1], roots[k], cell(bps, i)[1], env) for i, k in enumerate(cells)]
    return bps, cells, at, bodies


def _abs_roots(body: Expr, env: AssumptionEnv, varname: str) -> list[tuple[Abs, Expr, int]]:
    """(node, root, sign of the slope) of each absolute value of the
    variable in a body; its argument must be affine in the variable, with
    no absolute value inside, and its slope of known sign."""
    out = []
    for node in walk(body):
        if isinstance(node, Abs) and contains_var(node.arg):
            if any(isinstance(inner, Abs) and contains_var(inner.arg) for inner in walk(node.arg)):
                raise InputError("nested absolute values are not supported")
            ab = affine_parts(simplify(node.arg))
            if ab is None:
                raise InputError("absolute value argument must be affine in the variable: "
                                 + to_text(node.arg, varname))
            a, b = ab
            sgn_a = env.sign_of(a)
            if not sgn_a:
                raise UndecidableComparison(to_text(a), "0")
            out.append((node, simplify(Neg(b) / a), sgn_a))
    return out


def _strictly_inside(r: Expr, region: Region, env: AssumptionEnv) -> bool:
    return all(isinstance(lo, float) or isinstance(hi, float) or env.require_comparable(lo, hi) == Ordering.LESS
               for lo, hi in ((region.lo, r), (r, region.hi)))


def _cell_body(body: Expr | None, roots, hi, env: AssumptionEnv) -> Expr | None:
    """The branch body on a cell that ends at hi, each absolute value
    rewritten with the sign its argument takes there (no root lies inside
    a cell)."""
    if body is None or not roots:
        return body
    signs = {node: s if isinstance(hi, float) or env.require_comparable(hi, r) == Ordering.GREATER else -s
             for node, r, s in roots}

    def strip(e: Expr) -> Expr:
        if isinstance(e, Abs) and e in signs:
            inner = strip(e.arg)
            return inner if signs[e] > 0 else Neg(inner)
        return map_children(e, strip)

    return simplify(strip(body))


def limits_beside(pieces, bps, j: int, env: AssumptionEnv) -> tuple:
    """The one-sided limits at breakpoint j of the bodies on either side
    of it, (from the left, from the right); None for an empty piece or an
    infinite limit.  What fills a breakpoint that no guard covers."""
    lims = [None if body is None else one_sided_limit(body, bps[j], side, env)
            for body, side in ((pieces[j], "left"), (pieces[j + 1], "right"))]
    return tuple(None if numeric.is_inf(v) else v for v in lims)
