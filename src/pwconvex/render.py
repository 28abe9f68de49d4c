"""Text and JSON rendering of piecewise functions and operators.

Text output lists branches in breakpoint order with a separate row for
every breakpoint, e.g. ``y < -1 -> {y + 1}`` followed by ``y = -1 -> {0}``.
JSON output follows a fixed schema; numbers are exact rationals ``p/q``
when representable and 17-significant-digit decimals otherwise, while
parametric endpoints are carried as expression strings.  A piece's
JSON ``kind`` is read from its body (``pwf.piece_kind``,
``monop.op_piece_kind``): grids store bodies only.
"""

from __future__ import annotations

import math

from .expr import Const, format_number, to_text
from .grid import Grid
from .monop import MonotoneOperator, SetValue, op_piece_kind
from .pwf import PiecewiseFunction, piece_kind

INF = math.inf


def _endpoint_text(v, var: str) -> str:
    """Schema number: rational, decimal, signed infinity, or expression text."""
    if isinstance(v, float):
        return format_number(v)
    if isinstance(v, Const):
        return format_number(v.value)
    return to_text(v, var)


def _guard_text(var: str, lo, hi) -> str:
    lo_inf = isinstance(lo, float) and math.isinf(lo)
    hi_inf = isinstance(hi, float) and math.isinf(hi)
    if lo_inf and hi_inf:
        return var
    if lo_inf:
        return f"{var} < {_endpoint_text(hi, var)}"
    if hi_inf:
        return f"{var} > {_endpoint_text(lo, var)}"
    return f"{_endpoint_text(lo, var)} < {var} < {_endpoint_text(hi, var)}"


def render_set(v: SetValue, var: str = "x") -> str:
    """One set value as text, e.g. ``{0}`` or ``[-1, 1]``."""
    if v.tag == "empty":
        return "empty"
    if v.tag == "all":
        return "(-inf, inf)"
    if v.tag == "point":
        return "{" + to_text(v.lo, var) + "}"
    return f"[{_endpoint_text(v.lo, var)}, {_endpoint_text(v.hi, var)}]"


def _render_rows(g: Grid, piece_text, value_text) -> str:
    var = g.varname
    rows = []
    for s, item in enumerate(g.slices()):
        if s % 2:
            rows.append((f"{var} = {_endpoint_text(g.breakpoints[s // 2], var)}", value_text(item)))
        else:
            rows.append((_guard_text(var, *g.interval(s // 2)), piece_text(item)))
    width = max(len(guard) for guard, _ in rows)
    return "\n".join(f"{guard.ljust(width)}  ->  {text}" for guard, text in rows)


def render_function(f: PiecewiseFunction) -> str:
    var = f.varname
    return _render_rows(
        f,
        lambda p: "inf" if p.empty else to_text(p.body, var),
        lambda v: format_number(v) if isinstance(v, float) else to_text(v, var),
    )


def render_operator(T: MonotoneOperator) -> str:
    var = T.varname
    return _render_rows(
        T,
        lambda p: "empty" if p.empty else "{" + to_text(p.body, var) + "}",
        lambda v: render_set(v, var),
    )


def _interval_json(lo, hi, var: str) -> dict:
    return {"lo": _endpoint_text(lo, var), "hi": _endpoint_text(hi, var)}


def setvalue_to_json(v: SetValue, var: str = "x") -> dict:
    if v.tag in ("empty", "all"):
        return {"type": v.tag}
    if v.tag == "point":
        return {"type": "point", "lo": _endpoint_text(v.lo, var)}
    return {"type": "interval", "lo": _endpoint_text(v.lo, var), "hi": _endpoint_text(v.hi, var)}


def _grid_json(g: Grid, kind: str, empty_text: str, value_json, body_kind) -> dict:
    var = g.varname
    return {
        "kind": kind,
        "var": var,
        "breakpoints": [_endpoint_text(b, var) for b in g.breakpoints],
        "pieces": [
            {
                "interval": _interval_json(*g.interval(i), var),
                "kind": body_kind(p.body),
                "expr": empty_text if p.empty else to_text(p.body, var),
            }
            for i, p in enumerate(g.pieces)
        ],
        "at_breakpoints": [
            {"x": _endpoint_text(b, var), "value": value_json(v)} for b, v in zip(g.breakpoints, g.values)
        ],
    }


def function_to_json(f: PiecewiseFunction) -> dict:
    return _grid_json(f, "pwf", "inf", lambda v: {"type": "point", "lo": _endpoint_text(v, f.varname)},
                      lambda body: piece_kind(body, f.weakly_convex))


def operator_to_json(T: MonotoneOperator) -> dict:
    return _grid_json(T, "op", "empty", lambda v: setvalue_to_json(v, T.varname), op_piece_kind)
