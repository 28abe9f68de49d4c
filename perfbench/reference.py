"""Float reference for the benchmark's correctness checks.

Everything here works on plain Python floats and closures supplied by
the generator families.  It never imports the library under test, and it
does not reuse the library's own oracles: ``oracle.grid_conjugate`` shares
``eval_array`` with the symbolic side (and inherits its sign bug for
``x^(p/q)`` at negative x), so a check built on it would not be
independent.
"""

from __future__ import annotations

import math

INF = math.inf
GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def close(a: float, b: float, rel: float = 1e-6) -> bool:
    """Equal within ``rel`` relative to max(1, |b|), with exact infinities."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * (1.0 + abs(b))


# ---------------------------------------------------------------------------
# One-dimensional convex minimisation
# ---------------------------------------------------------------------------


def _bracket(psi, lo: float, hi: float, x0: float) -> tuple[float, float]:
    """[a, b] inside [lo, hi] that holds a minimiser of the convex psi."""
    ends = []
    # walk each way with doubling steps until psi rises: by convexity the
    # minimiser lies before the first point where it does
    for direction, limit in ((1.0, hi), (-1.0, lo)):
        x, fx, h = x0, psi(x0), 1.0
        while x != limit and abs(x) < 1e12:
            nxt = min(x + h, hi) if direction > 0 else max(x - h, lo)
            fn = psi(nxt)
            x = nxt
            if fn > fx:
                break
            fx = fn
            h *= 2.0
        ends.append(x)
    return ends[1], ends[0]


def argmin_convex(psi, lo: float = -INF, hi: float = INF, x0: float = 0.0,
                  tol: float = 1e-12) -> float:
    """Golden-section minimiser of a convex function on [lo, hi].

    ``psi`` returns +inf outside its domain; ``x0`` must lie where it is
    finite.
    """
    a, b = _bracket(psi, lo, hi, x0)
    c = b - GOLD * (b - a)
    d = a + GOLD * (b - a)
    fc, fd = psi(c), psi(d)
    for _ in range(400):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLD * (b - a)
            fc = psi(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLD * (b - a)
            fd = psi(d)
    # the minimiser may sit on an end of the bracket (a domain edge)
    return min((a, b, 0.5 * (a + b)), key=psi)


# ---------------------------------------------------------------------------
# Function transforms
# ---------------------------------------------------------------------------


def conjugate_at(f, y: float, lo: float, hi: float, x0: float, slopes: tuple[float, float]) -> float:
    """sup_x (x*y - f(x)) by golden section on the concave objective.

    ``slopes`` is the closed hull of the subgradients of f; outside it the
    supremum is +inf.  Points on its boundary are not asked for.
    """
    if y < slopes[0] or y > slopes[1]:
        return INF
    x = argmin_convex(lambda t: f(t) - t * y, lo, hi, x0)
    return x * y - f(x)


def prox_at(f, x: float, lam: float, lo: float, hi: float) -> float:
    """argmin_u f(u) + (u - x)^2 / (2*lam)."""
    start = min(max(x, lo), hi)
    if not math.isfinite(f(start)):
        start = _interior(lo, hi)
    return argmin_convex(lambda u: f(u) + (u - x) ** 2 / (2.0 * lam), lo, hi, start)


def _interior(lo: float, hi: float) -> float:
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + 1.0
    if math.isfinite(hi):
        return hi - 1.0
    return 0.0


def difference_quotients(f, x: float) -> tuple[float, float] | None:
    """(left, right) one-sided difference quotients of f at x, or None
    when f(x) is infinite (the subdifferential is empty there)."""
    fx = f(x)
    if math.isinf(fx):
        return None
    h = 1e-7 * (1.0 + abs(x))
    fl, fr = f(x - h), f(x + h)
    left = -INF if math.isinf(fl) else (fx - fl) / h
    right = INF if math.isinf(fr) else (fr - fx) / h
    return left, right


def subgradient_ok(f, x: float, got) -> bool:
    """``got`` is None for the empty set, else (lo, hi) in floats.

    For convex f the left quotient is at most f'_-(x) and the right one
    at least f'_+(x); both approach them as the step shrinks.
    """
    dq = difference_quotients(f, x)
    if dq is None or got is None:
        return dq is None and got is None
    lo, hi = got
    left, right = dq
    tol = 1e-4
    return _near(lo, left, tol) and _near(hi, right, tol)


def _near(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------------------
# Quadrature and distributions
# ---------------------------------------------------------------------------


def _legendre(n: int) -> list[tuple[float, float]]:
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton iteration."""
    out = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        out.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return out


_GL = _legendre(24)


def _panels(g, a: float, b: float, n: int) -> float:
    width = (b - a) / n
    total = 0.0
    for k in range(n):
        mid = a + (k + 0.5) * width
        total += sum(w * g(mid + 0.5 * width * t) for t, w in _GL)
    return total * width / 2.0


def integrate(g, a: float, b: float, tol: float = 1e-11) -> float:
    """Composite Gauss-Legendre on [a, b], doubling panels until stable.
    ``b`` may be +inf; the tail is mapped onto [0, 1) by t = a + s/(1-s)."""
    if b == INF:
        return integrate(lambda s: g(a + s / (1.0 - s)) / (1.0 - s) ** 2, 0.0, 1.0, tol)
    if a >= b:
        return 0.0
    n, prev = 1, _panels(g, a, b, 1)
    while n < 4096:
        n *= 2
        cur = _panels(g, a, b, n)
        if abs(cur - prev) <= tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    return prev


class Distribution:
    """A law given by its CDF closure and the points where the CDF has a
    kink or jump (the quadrature splits there)."""

    def __init__(self, cdf, knots: list[float], lo: float, hi: float):
        self.cdf = cdf
        self.knots = sorted(knots)
        self.lo, self.hi = lo, hi  # support hull, possibly infinite

    def survival_integral(self, x: float) -> float:
        """integral of 1 - F over [x, +inf)."""
        cuts = [x] + [k for k in self.knots if k > x]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            total += integrate(lambda t: 1.0 - self.cdf(t), a, b)
        end = cuts[-1]
        if self.hi > end:
            total += integrate(lambda t: 1.0 - self.cdf(t), end, self.hi)
        return total

    def superexpectation(self, x: float) -> float:
        """E[max(x, X)] = x + integral over [x, inf) of 1 - F."""
        x = max(x, self.lo)  # below the support max(x, X) = X
        return x + self.survival_integral(x)

    def quantile(self, p: float) -> float:
        """min{x : F(x) >= p} by bisection on the CDF."""
        a = self.lo if math.isfinite(self.lo) else -1.0
        while self.cdf(a) >= p:
            a = a - 2.0 * (1.0 + abs(a))
        b = self.hi if math.isfinite(self.hi) else 1.0
        while self.cdf(b) < p:
            b = b + 2.0 * (1.0 + abs(b))
        for _ in range(200):
            m = 0.5 * (a + b)
            if b - a <= 1e-15 * (1.0 + abs(m)):
                break
            if self.cdf(m) >= p:
                b = m
            else:
                a = m
        return b

    def superquantile(self, p: float) -> float:
        """Rockafellar-Uryasev: q + E[(X - q)+] / (1 - p) with q = VaR_p."""
        q = self.quantile(p)
        return q + self.survival_integral(q) / (1.0 - p)
