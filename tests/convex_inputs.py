"""Closed proper convex functions by construction, as piecewise DSL text.

Each function is a continuous piecewise quadratic with kinks, plus one
convex summand shared by every piece, optionally behind +inf walls:

* 1 to 3 breakpoints in quarters;
* pieces a*x^2 + b*x + c with a in {0, 1/2, 1, 2}; at each breakpoint
  the slope jumps up by 0, 1/2, 1 or 3/2 and c keeps the function
  continuous;
* one summand from exp(x), exp(-x), x^4, x^4/12, |x|, (x^2 + 1)^(1/2)
  and x*ln(x), the last behind a wall at 0, closed (0*ln 0 = 0) and
  with every breakpoint positive;
* optional walls one unit outside the outer breakpoints, closed on the
  finite side.

Every draw is a valid input, so a pipeline that exits 2 on one is at
fault.  Each draw carries the ends of its domain as floats, which the
brute-force oracles of ``oracles.py`` search between.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

SUMMANDS = ("exp(x)", "exp(-x)", "x^4", "x^4/12", "abs(x)", "(x^2 + 1)^(1/2)", "x*ln(x)")
CURVATURES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
SLOPE_JUMPS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))


@dataclass(frozen=True)
class ConvexInput:
    text: str
    lo: float  # the ends of the domain, -inf and inf where no wall stands
    hi: float


def _num(v: Fraction) -> str:
    s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return f"({s})" if v < 0 else s


def _piece(a: Fraction, b: Fraction, c: Fraction, summand: str) -> str:
    return f"{_num(a)}*x^2 + {_num(b)}*x + {_num(c)} + {summand}"


def convex_input(rng: random.Random) -> ConvexInput:
    """One draw."""
    summand = rng.choice(SUMMANDS)
    log_wall = summand == "x*ln(x)"
    quarters = range(1, 9) if log_wall else range(-8, 9)
    bps = sorted(Fraction(k, 4) for k in rng.sample(quarters, rng.randint(1, 3)))
    a = [rng.choice(CURVATURES) for _ in range(len(bps) + 1)]
    b = [Fraction(rng.randint(-8, 8), 4)]
    c = [Fraction(rng.randint(-4, 4), 2)]
    for i, t in enumerate(bps):
        # slope and value of piece i at t, continued by piece i + 1
        slope = 2 * a[i] * t + b[i] + rng.choice(SLOPE_JUMPS)
        b.append(slope - 2 * a[i + 1] * t)
        c.append(a[i] * t * t + b[i] * t + c[i] - a[i + 1] * t * t - b[i + 1] * t)
    lo = Fraction(0) if log_wall else (bps[0] - 1 if rng.random() < 0.5 else None)
    hi = bps[-1] + 1 if rng.random() < 0.5 else None
    ends = [lo, *bps, hi]
    branches = [] if lo is None else [f"x < {_num(lo)} -> inf"]
    for i in range(len(bps) + 1):
        left, right = ends[i], ends[i + 1]
        guard = " & ".join(([] if left is None else [f"{_num(left)} <= x"])
                           + ([] if right is None else [f"x {'<=' if i == len(bps) else '<'} {_num(right)}"]))
        branches.append(f"{guard} -> {_piece(a[i], b[i], c[i], summand)}")
    if hi is not None:
        branches.append(f"x > {_num(hi)} -> inf")
    return ConvexInput("pw{ " + " ; ".join(branches) + " }",
                       -math.inf if lo is None else float(lo), math.inf if hi is None else float(hi))


def convex_inputs(seed: int, n: int) -> list[ConvexInput]:
    """n draws from one seeded generator."""
    rng = random.Random(seed)
    return [convex_input(rng) for _ in range(n)]
