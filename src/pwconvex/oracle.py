"""The graph sampler behind ``penalty.verify_penalty``.

``sample_graph`` draws float points (x, u) with u in T(x) at the
feasible binding.  It keeps this module path, apart from the penalty
code that uses it, because the benchmark tracer wraps it by module and
name (``pwconvex.oracle.sample_graph``).  The brute-force cross-checks
of conjugation and the proximal map live in ``tests/oracles.py``.
"""

from __future__ import annotations

import random

from . import numeric
from .monop import MonotoneOperator

DEFAULT_SEED = 0xC0FFEE
SAMPLE_WINDOW = 30.0


def sample_graph(
    T: MonotoneOperator,
    n: int,
    rng: random.Random | None = None,
    window: float = SAMPLE_WINDOW,
) -> list[tuple[float, float]]:
    """n points (x, u) with u in T(x), numeric under a feasible binding.

    Breakpoint values contribute endpoints and midpoints (half-lines are
    clipped to the window); pieces contribute uniform random interior
    points, read through the pieces' kernels (``Grid.float_view``), which
    give bit for bit the floats of ``numeric.at``.
    """
    rng = rng or random.Random(DEFAULT_SEED)
    env = T.env
    binding = numeric.binding(env)
    view = T.float_view(binding)
    pts: list[tuple[float, float]] = []
    for xb, v in zip(view.breakpoints, T.values):
        if v.tag == "empty":
            continue
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
                u = numeric.defined(view.kernels[i], x)
                if u is not None:
                    pts.append((x, u))
    rng.shuffle(pts)
    return pts[:n] if len(pts) > n else pts
