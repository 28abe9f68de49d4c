"""Brute-force numeric oracles.

These deliberately share no code with the symbolic conjugation,
inversion, or resolvent paths they cross-check: grid_conjugate applies
the pointwise sup formula on a dense grid, numeric_prox minimizes the
proximal objective directly by golden-section search, and
monotonicity_check samples graph pairs.  Keep it that way; the tests
lose their teeth otherwise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import numeric
from .errors import MaxIterations, WindowOutsideDomain
from .expr import eval_array
from .monop import MonotoneOperator
from .pwf import PiecewiseFunction, domain, eval_pwf

INF = math.inf

DEFAULT_SEED = 0xC0FFEE
SAMPLE_WINDOW = 30.0


def _domain_floats(f: PiecewiseFunction) -> tuple[float, float]:
    d = domain(f)
    binding = numeric.binding(f.env)
    return numeric.value(d.lo, binding), numeric.value(d.hi, binding)


def grid_values(f: PiecewiseFunction, xs: np.ndarray, params: dict | None = None) -> np.ndarray:
    """Vectorized f(xs): +inf outside the domain, exact piece bodies inside."""
    binding = {**numeric.binding(f.env), **params} if params else numeric.binding(f.env)
    out = np.full(xs.shape, INF)
    bps = [numeric.value(b, binding) for b in f.breakpoints]
    edges = [-INF] + bps + [INF]
    for i, p in enumerate(f.pieces):
        mask = (xs > edges[i]) & (xs < edges[i + 1])
        if p.empty or not mask.any():
            continue
        out[mask] = eval_array(p.body, xs[mask], params=binding)
    for b, v in zip(bps, f.values):
        mask = xs == b
        if mask.any():
            out[mask] = numeric.value(v, binding)
    return out


def grid_conjugate(
    f: PiecewiseFunction,
    y,
    window: tuple[float, float] | None = None,
    n: int = 10**5,
) -> float:
    """Lower bound on the conjugate at y: max of y*x - f(x) over a grid."""
    dlo, dhi = _domain_floats(f)
    if window is None:
        lo, hi = -10.0, 10.0
        # widen so a bounded domain is always covered
        if not math.isinf(dlo):
            lo = min(lo, dlo - 1.0)
        if not math.isinf(dhi):
            hi = max(hi, dhi + 1.0)
    else:
        lo, hi = float(window[0]), float(window[1])
    if hi <= dlo or lo >= dhi:
        raise WindowOutsideDomain(f"window [{lo}, {hi}] misses the domain [{dlo}, {dhi}]")
    xs = np.linspace(lo, hi, int(n))
    binding = numeric.binding(f.env)
    bps = np.array([numeric.value(b, binding) for b in f.breakpoints])
    if bps.size:
        inside = bps[(bps >= lo) & (bps <= hi)]
        if inside.size:
            xs = np.unique(np.concatenate([xs, inside]))
    vals = grid_values(f, xs)
    yv = float(y)
    obj = yv * xs - vals
    finite = obj[np.isfinite(obj)]
    if finite.size == 0:
        raise WindowOutsideDomain("no finite objective value on the grid")
    return float(finite.max())


def numeric_prox(f: PiecewiseFunction, x, lam=1, tol: float = 1e-9, max_iter: int = 500) -> float:
    """Minimizer of f(u) + (u-x)^2/(2 lam) by golden-section search.

    The objective is strictly convex (lam > 0), so a three-point bracket
    found by doubling steps pins the minimizer; infinite values sort as
    larger than everything, which steers the search into the domain.
    """
    xf = float(x)
    lamf = float(lam)
    binding = numeric.binding(f.env)

    def phi(u: float) -> float:
        v = eval_pwf(f, u, params=binding)
        fv = float(v) if not (isinstance(v, float) and math.isinf(v)) else INF
        return fv + (u - xf) ** 2 / (2.0 * lamf)

    # a finite starting point: x if possible, else pulled inside the domain
    dlo, dhi = _domain_floats(f)
    c = min(max(xf, dlo), dhi)
    if not math.isfinite(phi(c)):
        # breakpoint-value-only domains or open edges: nudge inward
        for probe in (c, 0.5 * (max(dlo, -SAMPLE_WINDOW) + min(dhi, SAMPLE_WINDOW))):
            for eps in (0.0, 1e-12, 1e-6, 1e-3, 0.1):
                for s in (+1.0, -1.0):
                    u = probe + s * eps
                    if math.isfinite(phi(u)):
                        c = u
                        break
                else:
                    continue
                break
            else:
                continue
            break
    if not math.isfinite(phi(c)):
        raise MaxIterations("no finite value of the proximal objective was found")

    # expand a bracket [a, b] around c
    step = 1.0
    a, b = c - step, c + step
    it = 0
    while phi(a) < phi(c) or phi(b) < phi(c):
        if phi(a) < phi(c):
            c, a = a, a - step
        if phi(b) < phi(c):
            c, b = b, b + step
        step *= 2.0
        it += 1
        if it > max_iter:
            raise MaxIterations("bracket expansion did not terminate")

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, b
    u1 = hi - invphi * (hi - lo)
    u2 = lo + invphi * (hi - lo)
    p1, p2 = phi(u1), phi(u2)
    it = 0
    while hi - lo > tol:
        if p1 <= p2:
            hi, u2, p2 = u2, u1, p1
            u1 = hi - invphi * (hi - lo)
            p1 = phi(u1)
        else:
            lo, u1, p1 = u1, u2, p2
            u2 = lo + invphi * (hi - lo)
            p2 = phi(u2)
        it += 1
        if it > 400:
            raise MaxIterations("golden-section search did not converge")
    u = 0.5 * (lo + hi)
    # domain edges beat interior tolerance noise
    return min(max(u, dlo), dhi)


# ---------------------------------------------------------------------------
# Graph sampling
# ---------------------------------------------------------------------------


def sample_graph(
    T: MonotoneOperator,
    n: int,
    rng: random.Random | None = None,
    window: float = SAMPLE_WINDOW,
) -> list[tuple[float, float]]:
    """n points (x, u) with u in T(x), numeric under a feasible binding.

    Breakpoint values contribute endpoints and midpoints (half-lines are
    clipped to the window); pieces contribute uniform random interior
    points.
    """
    rng = rng or random.Random(DEFAULT_SEED)
    env = T.env
    binding = numeric.binding(env)
    pts: list[tuple[float, float]] = []
    for b, v in zip(T.breakpoints, T.values):
        if v.tag == "empty":
            continue
        xb = numeric.value(b, binding)
        if v.tag == "point":
            us = [numeric.value(v.lo, binding)]
        elif v.tag == "all":
            us = [-window, 0.0, window]
        else:
            lo = -window if isinstance(v.lo, float) else numeric.value(v.lo, binding)
            hi = window if isinstance(v.hi, float) else numeric.value(v.hi, binding)
            us = [lo, 0.5 * (lo + hi), hi]
        pts.extend((xb, u) for u in us)
    live = [i for i, p in enumerate(T.pieces) if not p.empty]
    if live:
        per = max(1, (n - len(pts)) // len(live) + 1)
        for i in live:
            lo, hi = T.interval(i)
            clipped = numeric.clip(env, lo, hi, window)
            if clipped is None:
                continue
            clo, chi = clipped
            for _ in range(per):
                x = rng.uniform(clo, chi)
                u = numeric.at(T.pieces[i].body, binding, x)
                if u is not None:
                    pts.append((x, u))
    rng.shuffle(pts)
    return pts[:n] if len(pts) > n else pts


@dataclass(frozen=True)
class MonotonicityReport:
    min_product: float
    passed: bool
    witness: tuple[tuple[float, float], tuple[float, float]] | None
    pairs: int


def monotonicity_check(
    T: MonotoneOperator,
    n_pairs: int = 500,
    seed: int = DEFAULT_SEED,
    threshold: float = -1e-12,
) -> MonotonicityReport:
    """Sample graph pairs and report the minimum of (x-y)(u-v)."""
    rng = random.Random(seed)
    pts = sample_graph(T, 2 * n_pairs, rng)
    best = INF
    witness = None
    count = 0
    for _ in range(n_pairs):
        if len(pts) < 2:
            break
        p = rng.choice(pts)
        q = rng.choice(pts)
        prod = (p[0] - q[0]) * (p[1] - q[1])
        count += 1
        if prod < best:
            best, witness = prod, (p, q)
    if count == 0:
        return MonotonicityReport(INF, True, None, 0)
    return MonotonicityReport(best, best >= threshold, witness, count)
