"""Seeded input families for the three workloads.

Every family draws rational coefficients from an ``ItemRandom`` and
returns an ``Item``: the DSL text the library receives, the assumption
facts and parameter binding, the ordered operations to run on it, and a
float reference (closures and domains) that the checker uses.  The
library only ever sees text, step sizes, points and bindings.

A workload is a fixed rotation of family slots; only the coefficients'
numerators and the points depend on the seed, so every seed gives the
same mix of cost classes.  Item ``k`` of a stream is drawn from its own
generator keyed by (workload, seed, k), so a prefix of the stream never
depends on how far a run got.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction

from reference import Distribution

INF = math.inf


@dataclass(frozen=True)
class Op:
    """One library call.  ``kind`` names the pipeline (the eval ops are
    ``eval``); ``target`` is the object it builds or evaluates; ``arg`` is
    the point or probability level.  ``known_defect`` names the known
    defect (its ROADMAP item where it has one) that makes this op fail."""

    kind: str
    target: str
    arg: Fraction | None = None
    known_defect: str | None = None


@dataclass
class Item:
    family: str
    source: str  # "pwf" | "cdf" | "quantile" | "operator"
    text: str
    ops: list[Op]
    facts: tuple[str, ...] = ()
    binding: dict[str, Fraction] = field(default_factory=dict)
    lam: Fraction | str = Fraction(1)  # a step size, or a parameter name
    # float reference: f, dom (lo, hi), x0, slopes (hull of subgradients)
    f: object = None
    dom: tuple[float, float] = (-INF, INF)
    x0: float = 0.0
    slopes: tuple[float, float] = (-INF, INF)
    dist: Distribution | None = None
    penalty: object = None  # closed-form penalty of a threshold operator


# ---------------------------------------------------------------------------
# Text helpers
# ---------------------------------------------------------------------------


def q(v: Fraction) -> str:
    """A rational as DSL text, parenthesised when negative."""
    v = Fraction(v)
    s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return f"({s})" if v < 0 else s


def poly(*coeffs: Fraction) -> str:
    """c0 + c1*x + c2*x^2 + ... as DSL text (zero terms dropped)."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        terms.append(q(c) if not mono else (mono if c == 1 else f"{q(c)}*{mono}"))
    return " + ".join(terms) if terms else "0"


def pw(pieces: list[tuple[str, str]]) -> str:
    return "pw{ " + " ; ".join(f"{g} -> {b}" for g, b in pieces) + " }"


class ItemRandom(random.Random):
    """The generator of one item.  Its own draws (randint, shuffle,
    sample) depend on the seed; ``shape`` makes the discrete choices
    (denominators, step sizes, picks from a list) and depends only on the
    item's position in the stream.  How costly a library call is depends
    most on such choices (an integer coefficient is cheap, a fraction
    dear), so every seed then gives the same costs at the same position
    and differs in the values drawn."""

    def __init__(self, workload: str, stream: str, seed: int, k: int):
        super().__init__(f"{workload}:{stream}{seed}:{k}")
        self.shape = random.Random(f"{workload}:{stream}shape:{k}")


def rat(rng: ItemRandom, lo: float, hi: float, dens=(1, 2, 3, 4, 5, 6, 8)) -> Fraction:
    """A rational in [lo, hi] whose denominator is the one chosen, when
    the range holds a numerator prime to it."""
    d = rng.shape.choice(dens)
    a, b = math.ceil(lo * d), math.floor(hi * d)
    coprime = [n for n in range(a, b + 1) if math.gcd(n, d) == 1]
    return Fraction(rng.choice(coprime) if coprime else rng.randint(a, b), d)


def distinct(rng: ItemRandom, n: int, lo: float, hi: float, gap: float = 0.25) -> list[Fraction]:
    """n sorted rationals in [lo, hi], pairwise at least ``gap`` apart."""
    while True:
        vals = sorted(rat(rng, lo, hi) for _ in range(n))
        if all(b - a >= gap for a, b in zip(vals, vals[1:])):
            return vals


def pick(options: list, variant: int):
    """The variant-th option, cycling: discrete choices that change an
    item's cost class follow the rotation, not the seed, so every seed
    gives the same mix."""
    return options[variant % len(options)]


def points(rng: ItemRandom, n: int, lo: float, hi: float) -> list[Fraction]:
    """n rationals, one in each of n equal strata of [lo, hi], shuffled:
    evaluation cost often grows with |x|, so stratifying keeps the cost
    mix alike across seeds."""
    if n == 0:
        return []
    width = (hi - lo) / n
    out = []
    for i in range(n):
        a, b, d = lo + i * width, lo + (i + 1) * width, rng.shape.choice((3, 4, 5, 7))
        while math.ceil(a * d) > math.floor(b * d):
            d *= 2
        out.append(Fraction(rng.randint(math.ceil(a * d), math.floor(b * d)), d))
    rng.shuffle(out)
    return out


def fn_ops(plan: dict[str, int], xs: list[Fraction], ys: list[Fraction],
           defects: dict[str, str] | None = None) -> list[Op]:
    """parse -> subdiff -> conj -> biconj -> prox, each followed by
    ``plan[target]`` evals: the conjugate at the ys, the others at the xs
    (cycled when the plan asks for more).  ``defects`` maps an op kind, or
    ``eval <target>``, to a known-defect tag."""
    defects = defects or {}
    ops = []
    for kind, target in (("parse", "f"), ("subdiff", "S"), ("conj", "g"), ("biconj", "h"), ("prox", "R")):
        ops.append(Op(kind, target, known_defect=defects.get(kind)))
        pts = ys if target == "g" else xs
        ops.extend(Op("eval", target, pts[i % len(pts)], defects.get("eval " + target))
                   for i in range(plan.get(target, 0)))
    return ops


def risk_ops(evals: list[Fraction], levels: list[Fraction], variant: int) -> list[Op]:
    """Superexpectation, its evals, the quantile and then the superquantile
    or the cvar.  Three risk ops of distinct cost classes per law keep the
    median away from a class boundary."""
    ops = [Op("load", "d"), Op("risk", "E")]
    ops.extend(Op("eval", "E", x) for x in evals)
    ops.append(Op("risk", "quantile", levels[0]))
    ops.append(Op("risk", pick(["superquantile", "cvar", "superquantile"], variant), levels[1]))
    return ops


def levels(rng: ItemRandom) -> list[Fraction]:
    """Probability levels for the quantile and the superquantile or cvar."""
    return [rat(rng, 0.05, 0.95, dens=(20,)) for _ in range(2)]


def penalty_ops(evals: list[Fraction]) -> list[Op]:
    return [Op("load", "T"), Op("penalty", "p")] + [Op("eval", "p", u) for u in evals]


# ---------------------------------------------------------------------------
# plq: piecewise linear-quadratic, exact path
# ---------------------------------------------------------------------------


def plq_affine(rng, plan, variant):
    n = 3 + variant % 6
    kinks = distinct(rng, n - 1, -4, 4)
    slopes = distinct(rng, n, -3, 3)
    c = [rat(rng, -2, 2)]
    for i in range(1, n):
        c.append(c[-1] + (slopes[i - 1] - slopes[i]) * kinks[i - 1])
    guards = [f"x < {q(kinks[0])}"]
    guards += [f"{q(a)} <= x & x < {q(b)}" for a, b in zip(kinks, kinks[1:])]
    guards.append(f"x >= {q(kinks[-1])}")
    text = pw([(g, poly(ci, si)) for g, ci, si in zip(guards, c, slopes)])
    sf, cf = [float(s) for s in slopes], [float(v) for v in c]

    def f(x):
        return max(s * x + b for s, b in zip(sf, cf))

    inner = [s for s in slopes[1:-1]] or [(slopes[0] + slopes[-1]) / 2]
    ys = [rng.shape.choice(inner), (slopes[0] * 2 + slopes[-1]) / 3]
    xs = [rng.shape.choice(kinks)] + points(rng, 3, -5, 5)
    return Item("affine", "pwf", text, fn_ops(plan, xs, ys), f=f, slopes=(sf[0], sf[-1]),
                lam=rng.shape.choice([Fraction(1, 2), Fraction(1), Fraction(2)]))


def plq_huber(rng, plan, variant):
    a, b = rat(rng, 0.25, 2), rat(rng, -1, 1)
    k1, k2 = distinct(rng, 2, -3, 3, gap=0.5)
    m1, m2 = 2 * a * k1 + b, 2 * a * k2 + b
    c1, c2 = a * k1 * k1 + b * k1 - m1 * k1, a * k2 * k2 + b * k2 - m2 * k2
    text = pw([(f"x < {q(k1)}", poly(c1, m1)),
               (f"{q(k1)} <= x & x <= {q(k2)}", poly(0, b, a)),
               (f"x > {q(k2)}", poly(c2, m2))])
    af, bf, k1f, k2f = float(a), float(b), float(k1), float(k2)
    m1f, m2f, c1f, c2f = float(m1), float(m2), float(c1), float(c2)

    def f(x):
        if x < k1f:
            return m1f * x + c1f
        if x > k2f:
            return m2f * x + c2f
        return af * x * x + bf * x

    ys = [rat(rng, float(m1), float(m2), dens=(3, 7)) for _ in range(3)]
    ys = [y for y in ys if m1 < y < m2] or [(m1 + m2) / 2]
    xs = [k1] + points(rng, 3, -5, 5)
    return Item("huber", "pwf", text, fn_ops(plan, xs, ys), f=f, slopes=(m1f, m2f),
                lam=rng.shape.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))


def plq_quadratic(rng, plan, variant):
    """Two quadratic pieces with a kink at k (slope jump s1 < s2)."""
    k, v = rat(rng, -2, 2), rat(rng, -1, 1)
    a1, a2 = rat(rng, 0.25, 2), rat(rng, 0.25, 2)
    s1 = rat(rng, -2, 1)
    s2 = s1 + rat(rng, 0.5, 2)
    # a*(x - k)^2 + s*(x - k) + v, expanded
    def coeffs(a, s):
        return (a * k * k - s * k + v, s - 2 * a * k, a)
    text = pw([(f"x < {q(k)}", poly(*coeffs(a1, s1))), (f"x >= {q(k)}", poly(*coeffs(a2, s2)))])
    kf, vf = float(k), float(v)
    a1f, a2f, s1f, s2f = float(a1), float(a2), float(s1), float(s2)

    def f(x):
        d = x - kf
        return (a1f * d * d + s1f * d if d < 0 else a2f * d * d + s2f * d) + vf

    ys = [s1 + (s2 - s1) / 3, rat(rng, -4, 4, dens=(3, 7))]
    xs = [k] + points(rng, 3, -4, 4)
    return Item("quadratic", "pwf", text, fn_ops(plan, xs, ys), f=f,
                lam=rng.shape.choice([Fraction(1, 2), Fraction(1), Fraction(2)]))


def plq_indicator(rng, plan, variant):
    """Box [lo, hi] or half-line [lo, inf) with an affine body."""
    s, c = rat(rng, -2, 2), rat(rng, -1, 1)
    body = poly(c, s)
    sf, cf = float(s), float(c)
    if pick([True, False, True], variant):
        lo, hi = distinct(rng, 2, -3, 3, gap=1)
        text = pw([(f"x < {q(lo)}", "inf"), (f"{q(lo)} <= x & x <= {q(hi)}", body), (f"x > {q(hi)}", "inf")])
        dom, slopes, name = (float(lo), float(hi)), (-INF, INF), "box"
        ys = points(rng, 2, -4, 4)
    else:
        lo = rat(rng, -3, 3)
        text = pw([(f"x < {q(lo)}", "inf"), (f"x >= {q(lo)}", body)])
        dom, slopes, name = (float(lo), INF), (-INF, sf), "halfline"
        ys = [s - rat(rng, 0.25, 3), s + rat(rng, 0.25, 2)]

    def f(x):
        return sf * x + cf if dom[0] <= x <= dom[1] else INF

    xs = [lo] + points(rng, 3, -4, 4)
    return Item(name, "pwf", text, fn_ops(plan, xs, ys), f=f, dom=dom, x0=float(lo) + 0.5,
                slopes=slopes, lam=rng.shape.choice([Fraction(1, 2), Fraction(1), Fraction(2)]))


def plq_scaling(rng, plan, variant):
    """c*abs(x - k) or the relu c*max(x - k, 0)."""
    c, k = rat(rng, 0.25, 3), rat(rng, -2, 2)
    cf, kf = float(c), float(k)
    if pick([True, False, True], variant):
        text = f"{q(c)}*abs(x - {q(k)})" if k >= 0 else f"{q(c)}*abs(x + {q(-k)})"
        name, slopes = "abs", (-cf, cf)

        def f(x):
            return cf * abs(x - kf)
    else:
        text = pw([(f"x < {q(k)}", "0"), (f"x >= {q(k)}", poly(-c * k, c))])
        name, slopes = "relu", (0.0, cf)

        def f(x):
            return cf * max(x - kf, 0.0)

    ys = [slopes[0] + (slopes[1] - slopes[0]) * t for t in (0.3, 0.8)]
    ys = [Fraction(y).limit_denominator(64) for y in ys]
    xs = [k] + points(rng, 3, -4, 4)
    return Item(name, "pwf", text, fn_ops(plan, xs, ys), f=f, slopes=slopes,
                lam=rng.shape.choice([Fraction(1, 2), Fraction(1), Fraction(2)]))


def cdf_piecewise(rng, plan, variant):
    """Piecewise-uniform or atomic law with rational knots and masses."""
    m = 2 + variant % 3
    knots = distinct(rng, m + 1, -2, 4, gap=0.5)
    cuts = sorted(rng.sample(range(1, 12), m - 1))
    probs = [Fraction(0)] + [Fraction(c, 12) for c in cuts] + [Fraction(1)]
    kf = [float(v) for v in knots]
    pf = [float(v) for v in probs]
    if pick([True, False, True], variant):
        pieces = [(f"x < {q(knots[0])}", "0")]
        for i in range(m):
            a, b = knots[i], knots[i + 1]
            slope = (probs[i + 1] - probs[i]) / (b - a)
            pieces.append((f"{q(a)} <= x & x < {q(b)}", poly(probs[i] - slope * a, slope)))
        pieces.append((f"x >= {q(knots[-1])}", "1"))
        name = "pw_uniform"

        def cdf(x):
            if x < kf[0]:
                return 0.0
            for i in range(m):
                if x < kf[i + 1]:
                    return pf[i] + (pf[i + 1] - pf[i]) * (x - kf[i]) / (kf[i + 1] - kf[i])
            return 1.0
    else:
        atoms = knots[:m]
        pieces = [(f"x < {q(atoms[0])}", "0")]
        for i in range(m - 1):
            pieces.append((f"{q(atoms[i])} <= x & x < {q(atoms[i + 1])}", q(probs[i + 1])))
        pieces.append((f"x >= {q(atoms[-1])}", "1"))
        name = "atomic"
        kf = kf[:m]

        def cdf(x):
            v = 0.0
            for i, a in enumerate(kf):
                if x >= a:
                    v = pf[i + 1]
            return v

    dist = Distribution(cdf, kf, kf[0], kf[-1])
    return Item(name, "cdf", pw(pieces), risk_ops(points(rng, plan, -3, 5), levels(rng), variant), dist=dist)


def threshold(rng, plan, variant, kinds=("soft", "hard", "firm", "clamp", "hard")):
    """Soft, hard or firm thresholding, or a clamp; the closed-form
    penalty is known up to an additive constant."""
    kind = pick(kinds, variant)
    t = rat(rng, 0.25, 2)
    tf = float(t)
    if kind == "soft":
        text = (f"sd{{ x < -{q(t)} -> {{x + {q(t)}}} ; x = -{q(t)} -> {{0}} ; -{q(t)} < x & x < {q(t)} -> {{0}} ;"
                f" x = {q(t)} -> {{0}} ; x > {q(t)} -> {{x - {q(t)}}} }}")

        def phi(u):
            return tf * abs(u)
    elif kind == "hard":
        text = (f"sd{{ x < -{q(t)} -> {{x}} ; x = -{q(t)} -> {{-{q(t)}, 0}} ; -{q(t)} < x & x < {q(t)} -> {{0}} ;"
                f" x = {q(t)} -> {{0, {q(t)}}} ; x > {q(t)} -> {{x}} }}")

        def phi(u):
            return tf * abs(u) - u * u / 2 if abs(u) <= tf else tf * tf / 2
    elif kind == "firm":
        t2 = t + rat(rng, 0.5, 2)
        t2f = float(t2)
        g = t2 / (t2 - t)
        text = (f"sd{{ x < -{q(t2)} -> {{x}} ; x = -{q(t2)} -> {{-{q(t2)}}} ;"
                f" -{q(t2)} < x & x < -{q(t)} -> {{{poly(g * t, g)}}} ; x = -{q(t)} -> {{0}} ;"
                f" -{q(t)} < x & x < {q(t)} -> {{0}} ; x = {q(t)} -> {{0}} ;"
                f" {q(t)} < x & x < {q(t2)} -> {{{poly(-g * t, g)}}} ; x = {q(t2)} -> {{{q(t2)}}} ;"
                f" x > {q(t2)} -> {{x}} }}")

        def phi(u):
            a = abs(u)
            return tf * a - tf * a * a / (2 * t2f) if a <= t2f else tf * t2f / 2
    else:
        lo, hi = -t, t + rat(rng, 0, 2)
        lof, hif = float(lo), float(hi)
        text = (f"sd{{ x < {q(lo)} -> {{{q(lo)}}} ; x = {q(lo)} -> {{{q(lo)}}} ; {q(lo)} < x & x < {q(hi)} -> {{x}} ;"
                f" x = {q(hi)} -> {{{q(hi)}}} ; x > {q(hi)} -> {{{q(hi)}}} }}")

        def phi(u):
            return 0.0 if lof <= u <= hif else INF

    us = [Fraction(0)] + points(rng, plan - 1, -3, 3)
    return Item(kind, "operator", text, penalty_ops(us), penalty=phi)


# ---------------------------------------------------------------------------
# smooth: transcendental and high-degree bodies, numeric fallbacks
# ---------------------------------------------------------------------------


def sm_even_power(rng, plan, variant):
    k, c = pick([2, 3, 4], variant), rat(rng, 0.25, 3)
    cf = float(c)

    def f(x):
        return cf * x ** (2 * k)

    return Item("even_power", "pwf", f"{q(c)}*x^{2 * k}", fn_ops(plan, points(rng, 9, -3, 3), points(rng, 9, -3, 3)),
                f=f, lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def sm_unpeelable(rng, plan, variant, offset=0):
    """x^(2k) + b*x^2: no closed-form inverse of the derivative, so the
    conjugate is a quadrature over an implicit inverse.  Its cost steps up
    with |y| (about 40 ms below 1, 80 ms up to 2), so the conjugate is
    evaluated at 0 < |y| < 1 only: one cost class, away from y = 0, which
    is exact."""
    k, b = pick([2, 3], variant + offset), rat(rng, 0.5, 3)
    bf = float(b)

    def f(x):
        return x ** (2 * k) + bf * x * x

    ys = [y if i % 2 else -y for i, y in enumerate(points(rng, plan["g"], 0.125, 0.95))]
    return Item("unpeelable", "pwf", f"x^{2 * k} + {q(b)}*x^2", fn_ops(plan, points(rng, 9, -2, 2), ys),
                f=f, lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def sm_exp(rng, plan, variant):
    a = rat(rng, 0.5, 2)
    af = float(a)

    def f(x):
        try:
            return math.exp(af * x)
        except OverflowError:
            return INF

    ys = [rat(rng, 0.25, 4, dens=(3, 4, 7)) for _ in range(9)]
    return Item("exp", "pwf", f"exp({q(a)}*x)", fn_ops(plan, points(rng, 9, -2, 2), ys),
                f=f, slopes=(0.0, INF), lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def sm_neglog(rng, plan, variant):
    c = rat(rng, 0.5, 3)
    cf = float(c)
    text = pw([("x <= 0", "inf"), ("x > 0", f"-{q(c)}*ln(x)")])

    def f(x):
        return -cf * math.log(x) if x > 0 else INF

    ys = [-rat(rng, 0.25, 4, dens=(3, 4, 7)) for _ in range(9)]
    return Item("neglog", "pwf", text, fn_ops(plan, points(rng, 9, 0.25, 4), ys),
                f=f, dom=(0.0, INF), x0=1.0, slopes=(-INF, 0.0), lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def sm_halfpow(rng, plan, variant, offset=0):
    """x^(p/q) on [0, inf) with p/q > 1."""
    e = pick([Fraction(3, 2), Fraction(4, 3), Fraction(5, 3), Fraction(5, 2), Fraction(7, 4)], variant + offset)
    c = rat(rng, 0.5, 2)
    ef, cf = float(e), float(c)
    text = pw([("x < 0", "inf"), ("x >= 0", f"{q(c)}*x^({e})")])

    def f(x):
        return cf * x ** ef if x >= 0 else INF

    return Item("halfpow", "pwf", text, fn_ops(plan, points(rng, 9, 0.1, 3), points(rng, 9, 0.1, 3)),
                f=f, dom=(0.0, INF), x0=1.0, slopes=(-INF, INF), lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def sm_entropy(rng, plan, variant, probe=False):
    """b*x + x*ln(x) on [0, inf).  Its prox fails: bisection cannot
    bracket near the open end (ROADMAP 2c).  The timed item leaves the
    prox out; the probe runs only the parse and the prox."""
    b = rat(rng, -1, 1)
    bf = float(b)
    text = pw([("x < 0", "inf"), ("x = 0", "0"), ("x > 0", f"x*ln(x) + {q(b)}*x" if b else "x*ln(x)")])

    def f(x):
        if x < 0:
            return INF
        return 0.0 if x == 0 else x * math.log(x) + bf * x

    ops = fn_ops(plan, points(rng, 9, 0.1, 3), points(rng, 9, -2, 2), defects={"prox": "ROADMAP 2c"})
    ops = [o for o in ops if o.kind == "parse" or o.target == "R"] if probe else [o for o in ops if o.target != "R"]
    return Item("entropy", "pwf", text, ops,
                f=f, dom=(0.0, INF), x0=1.0, slopes=(-INF, INF), lam=Fraction(1))


def sm_exp_tail(rng, plan, variant):
    """exp(x) - s*x on [0, inf) with its tangent line continued left."""
    s = rat(rng, 0.5, 3)
    sf = float(s)
    text = pw([("x < 0", poly(1, 1 - s)), ("x >= 0", f"exp(x) - {q(s)}*x")])

    def f(x):
        if x < 0:
            return 1.0 + (1.0 - sf) * x
        try:
            return math.exp(x) - sf * x
        except OverflowError:
            return INF

    ys = [1 - s + rat(rng, 0.25, 3, dens=(3, 4, 7)) for _ in range(9)]
    return Item("exp_tail", "pwf", text, fn_ops(plan, points(rng, 9, -2, 2), ys),
                f=f, slopes=(1 - sf, INF), lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def cdf_exponential(rng, plan, variant, as_quantile=False):
    """Exponential law, given as a CDF or as its quantile function (the
    quantile input draws its scale 1/a, which its text holds)."""
    a = 1 / rat(rng, 1 / 3, 2) if as_quantile else rat(rng, 0.5, 3)
    af = float(a)
    if as_quantile:
        source, text = "quantile", f"-ln(1 - p)*{q(1 / a)}"
    else:
        source, text = "cdf", pw([("x < 0", "0"), ("x >= 0", f"1 - exp(-{q(a)}*x)")])

    def cdf(x):
        return 0.0 if x < 0 else 1.0 - math.exp(-af * x)

    return Item("exp_quantile" if as_quantile else "exponential", source, text,
                risk_ops(points(rng, plan, -1, 4), levels(rng), variant), dist=Distribution(cdf, [0.0], 0.0, INF))


def cdf_pareto(rng, plan, variant, fractional_scale=False, offset=0):
    """Pareto law with scale m.  With a non-integer m its superexpectation
    raises UnsupportedTail after a slow numeric fallback (a defect not yet
    on the ROADMAP); such a probe runs only the load and that one op."""
    alpha = pick([2, 3, 4], variant + offset)
    m = pick([Fraction(3, 2), Fraction(5, 4)] if fractional_scale else [Fraction(1), Fraction(2), Fraction(3)],
             variant + offset)
    mf = float(m)
    text = pw([(f"x < {q(m)}", "0"), (f"x >= {q(m)}", f"1 - {q(m ** alpha)}/x^{alpha}")])

    def cdf(x):
        return 0.0 if x < mf else 1.0 - (mf / x) ** alpha

    ops = risk_ops(points(rng, plan, 0, 4), levels(rng), variant)
    if fractional_scale:
        ops = [Op("load", "d"), Op("risk", "E", known_defect="Pareto superexpectation with a fractional scale")]
    return Item("pareto", "cdf", text, ops, dist=Distribution(cdf, [mf], mf, INF))


def cdf_power(rng, plan, variant, as_quantile=False, offset=0):
    """F(x) = (x/m)^k on [0, m], or its quantile function m*p^(1/k)."""
    k, m = pick([2, 3, 2], variant + offset), rat(rng, 1, 3)
    mf = float(m)
    if as_quantile:
        source, text = "quantile", f"{q(m)}*p^(1/{k})"
    else:
        source = "cdf"
        text = pw([("x < 0", "0"), (f"0 <= x & x < {q(m)}", f"x^{k}/{q(m ** k)}"), (f"x >= {q(m)}", "1")])

    def cdf(x):
        return 0.0 if x < 0 else (1.0 if x >= mf else (x / mf) ** k)

    return Item("power_quantile" if as_quantile else "power", source, text, risk_ops(points(rng, plan, -1, 4), levels(rng), variant),
                dist=Distribution(cdf, [0.0, mf], 0.0, mf))


# ---------------------------------------------------------------------------
# parametric: 1-3 parameters under seeded assumptions
# ---------------------------------------------------------------------------


def par_value(rng, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational strictly inside (lo, hi)."""
    return lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)


# denominators for the parametric families' free constants, so that seeds
# rarely repeat a text
FINE = (3, 5, 7, 9, 11)


def shifted(c: Fraction) -> str:
    """``x - c`` as DSL text."""
    return f"x - {q(c)}" if c >= 0 else f"x + {q(-c)}"


def par_abs(rng, plan, variant):
    """a*|x - c|, with the prox step either 1 or a symbolic t."""
    cap = pick([None, Fraction(4), Fraction(6)], variant)
    facts = ("0 < a",) + ((f"a < {cap}",) if cap else ())
    a, c = par_value(rng, Fraction(0), cap or Fraction(3)), rat(rng, -1, 1, dens=FINE)
    af, cf = float(a), float(c)
    step = pick([True, False, True], variant)
    binding, lam = {"a": a}, Fraction(1)
    if step:
        facts += ("0 < t",)
        binding["t"] = par_value(rng, Fraction(0), Fraction(2))
        lam = "t"
    ys = [a * Fraction(rng.randint(-7, 7), 8) for _ in range(3)]

    def f(x):
        return af * abs(x - cf)

    return Item("a_abs", "pwf", f"a*abs({shifted(c)})", fn_ops(plan, points(rng, 6, -3, 3), ys), facts=facts,
                binding=binding, f=f, slopes=(-af, af), lam=lam)


def par_huber(rng, plan, variant):
    """s times the Huber function with threshold l."""
    facts = pick([("0 < l",), ("0 < l", "l < 3"), ("1/2 < l", "l < 2")], variant)
    l, s = par_value(rng, Fraction(1, 2), Fraction(2)), rat(rng, 0.5, 2, dens=FINE)
    lf, sf = float(l), float(s)
    text = pw([("x < -l", f"-{q(s)}*l*x - {q(s / 2)}*l^2"), ("-l <= x & x <= l", f"{q(s / 2)}*x^2"),
               ("x > l", f"{q(s)}*l*x - {q(s / 2)}*l^2")])

    def f(x):
        return sf * (x * x / 2 if abs(x) <= lf else lf * abs(x) - lf * lf / 2)

    ys = [s * l * Fraction(rng.randint(-7, 7), 8) for _ in range(3)]
    return Item("huber_l", "pwf", text, fn_ops(plan, points(rng, 6, -3, 3), ys), facts=facts,
                binding={"l": l}, f=f, slopes=(-sf * lf, sf * lf), lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def par_box(rng, plan, variant):
    """c*x on the box [-l, u]."""
    facts = pick([("0 < l", "0 < u"), ("0 < l", "0 < u", "u < 4")], variant)
    l, u = par_value(rng, Fraction(0), Fraction(3)), par_value(rng, Fraction(0), Fraction(4))
    c = rat(rng, 0.25, 1, dens=FINE) * pick([1, -1], variant)
    lf, uf, cf = float(l), float(u), float(c)
    text = pw([("x < -l", "inf"), ("-l <= x & x <= u", poly(0, c)), ("x > u", "inf")])

    def f(x):
        return cf * x if -lf <= x <= uf else INF

    return Item("box_lu", "pwf", text, fn_ops(plan, points(rng, 6, -3, 3), points(rng, 6, -3, 3)),
                facts=facts, binding={"l": l, "u": u}, f=f, dom=(-lf, uf), x0=(uf - lf) / 2,
                lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def par_wall(rng, plan, variant):
    """Indicator wall at l under c*x^4.  The prox stores float bracket
    bounds from the feasible point l = 1, so evaluating it at a small l
    fails (ROADMAP 2a); the timed plan has no prox evals, the probe's
    plan one."""
    l, c = Fraction(1, pick([5, 8, 10], variant)), rat(rng, 0.5, 2, dens=FINE)
    lf, cf = float(l), float(c)
    text = pw([("x < l", "inf"), ("x >= l", f"{q(c)}*x^4")])

    def f(x):
        return cf * x ** 4 if x >= lf else INF

    xs = [Fraction(rng.randint(1, 3), 2)] + points(rng, 5, 0.3, 3)
    return Item("wall_l", "pwf", text, fn_ops(plan, xs, points(rng, 6, -1, 3), defects={"eval R": "ROADMAP 2a"}),
                facts=("0 < l",), binding={"l": l}, f=f, dom=(lf, INF), x0=lf + 1.0, lam=Fraction(1))


def par_mixed(rng, plan, variant):
    """c*x^2 - l*x left of 0 and a*x^2 right of it."""
    facts = pick([("0 < l", "0 < a"), ("0 < l", "l < 3", "0 < a")], variant)
    l, a = par_value(rng, Fraction(0), Fraction(3)), par_value(rng, Fraction(0), Fraction(3))
    c = rat(rng, 0.25, 2, dens=FINE)
    lf, af, cf = float(l), float(a), float(c)
    text = pw([("x < 0", f"{q(c)}*x^2 - l*x"), ("x >= 0", "a*x^2")])

    def f(x):
        return cf * x * x - lf * x if x < 0 else af * x * x

    ys = [-l * Fraction(rng.randint(1, 7), 8), rat(rng, 0, 3, dens=FINE)]
    return Item("mixed", "pwf", text, fn_ops(plan, points(rng, 6, -3, 3), ys), facts=facts,
                binding={"l": l, "a": a}, f=f, slopes=(-INF, INF),
                lam=rng.shape.choice([Fraction(1, 2), Fraction(1)]))


def par_cdf(rng, plan, variant):
    """Uniform law on [c, c + u].  One law shape with a simple shift keeps
    the superexpectation's cost in one class, so the risk median does not
    sit between two shapes."""
    u = par_value(rng, Fraction(0), Fraction(4))
    c = rng.shape.choice([Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)])
    uf, cf = float(u), float(c)
    text = pw([(f"x < {q(c)}", "0"), (f"{q(c)} <= x & x < {q(c)} + u", f"({shifted(c)})/u"),
               (f"x >= {q(c)} + u", "1")])
    dist = Distribution(lambda x: min(max((x - cf) / uf, 0.0), 1.0), [cf, cf + uf], cf, cf + uf)
    return Item("uniform_param", "cdf", text, risk_ops(points(rng, plan, -1, 4), levels(rng), variant),
                facts=("0 < u",), binding={"u": u}, dist=dist)


def par_threshold(rng, plan, variant):
    """Soft threshold at l, or a clamp to [-l, l + c] with a simple c (the
    cost of recovering the penalty grows quickly with c's denominator)."""
    l = par_value(rng, Fraction(0), Fraction(2))
    lf = float(l)
    if pick([True, False, True], variant):
        text = ("sd{ x < -l -> {x + l} ; x = -l -> {0} ; -l < x & x < l -> {0} ; x = l -> {0} ;"
                " x > l -> {x - l} }")
        name = "soft_l"

        def phi(u):
            return lf * abs(u)
    else:
        c = rng.shape.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
        hf = lf + float(c)
        text = (f"sd{{ x < -l -> {{-l}} ; x = -l -> {{-l}} ; -l < x & x < l + {q(c)} -> {{x}} ;"
                f" x = l + {q(c)} -> {{l + {q(c)}}} ; x > l + {q(c)} -> {{l + {q(c)}}} }}")
        name = "clamp_l"

        def phi(u):
            return 0.0 if -lf <= u <= hf else INF

    us = [Fraction(0)] + points(rng, plan - 1, -3, 3)
    return Item(name, "operator", text, penalty_ops(us), facts=("0 < l",), binding={"l": l}, penalty=phi)


# ---------------------------------------------------------------------------
# Workloads: a rotation of (family, eval plan) slots
# ---------------------------------------------------------------------------

PLQ_EVALS = {"f": 1, "S": 1, "g": 2, "h": 1, "R": 2}
PARAM_EVALS = {"f": 1, "S": 1, "g": 2, "h": 1, "R": 3}
# smooth evals fall in three cost classes: exact values (fast), bisection
# in a prox (about 0.5 ms) and quadrature over an implicit inverse in the
# conjugate of an unpeelable body (about 40 ms).  These plans put 30 % of
# a rotation's evals in the first class (with the law and threshold
# evals), 60 % in the second and 9 % in the third, so the median sits
# inside the bisection class and the p95 inside the quadrature class, away
# from the class boundaries.  The prox is evaluated twice at each of the
# nine stratified points, so every item covers its range evenly.  The prox
# of exp_tail is mostly exact, so it gets few evals.
SMOOTH_EVALS = {"f": 1, "S": 1, "g": 2, "h": 1, "R": 18}
UNPEELABLE_EVALS = {"f": 1, "S": 1, "g": 10, "h": 1, "R": 18}
EXACT_PROX_EVALS = {"f": 1, "S": 1, "g": 2, "h": 1, "R": 2}

# Odd numbers of functions (9), laws (15) and thresholds (5) per rotation,
# and both unpeelable degrees in every rotation: no pipeline's median falls
# between two equally sized groups, and a run's mix depends little on
# where it stops.  Risk ops are cheap next to the evals, so each law runs
# three times (with other exponents) to give risk_ms_p50 enough samples,
# and only the first copy evaluates its superexpectation; three of the five
# thresholds are soft, which puts penalty_ms_p50 inside one cost class.
LAWS = [(partial(law, **kw), 2 if offset == 0 else 0) for offset in (0, 1, 2) for law, kw in (
    (cdf_exponential, {}), (cdf_pareto, {"offset": offset}), (cdf_power, {"offset": offset}),
    (cdf_exponential, {"as_quantile": True}), (cdf_power, {"as_quantile": True, "offset": offset}))]
SMOOTH = [(sm_even_power, SMOOTH_EVALS), (sm_unpeelable, UNPEELABLE_EVALS), (sm_exp, SMOOTH_EVALS),
          (sm_neglog, SMOOTH_EVALS), (sm_halfpow, SMOOTH_EVALS), (partial(sm_unpeelable, offset=1), UNPEELABLE_EVALS),
          (sm_entropy, SMOOTH_EVALS), (sm_exp_tail, EXACT_PROX_EVALS), (partial(sm_halfpow, offset=2), SMOOTH_EVALS),
          *LAWS,
          *[(partial(threshold, kinds=(kind,)), 3) for kind in ("soft", "hard", "soft", "firm", "soft")]]

# items per rotation of distinct family slots; the variant of item k is
# k // BASE_ROTATION[workload]
BASE_ROTATION = {"plq": 7, "smooth": len(SMOOTH), "parametric": 7}

WORKLOADS = {
    # build-heavy and exact: simplify, constant compare, structural limits
    "plq": [(plq_affine, PLQ_EVALS), (plq_huber, PLQ_EVALS), (plq_quadratic, PLQ_EVALS),
            (plq_indicator, PLQ_EVALS), (plq_scaling, PLQ_EVALS), (cdf_piecewise, 2), (threshold, 3)],
    # query-heavy: bisection, quadrature, guardrail sampling, limit probes
    "smooth": SMOOTH,
    # Fourier-Motzkin compare and feasible_point on non-empty environments
    "parametric": [(par_abs, PARAM_EVALS), (par_huber, PARAM_EVALS), (par_box, PARAM_EVALS),
                   (par_wall, {**PARAM_EVALS, "R": 0}), (par_mixed, PARAM_EVALS), (par_cdf, 2),
                   (par_threshold, 3)],
}


# Inputs that hit a known defect.  No workload times them, since an op that
# fails makes a run incorrect; every run executes each probe once, untimed,
# and reports whether its tagged op still fails.
KNOWN_DEFECTS = {
    "plq": [],
    "smooth": [(partial(sm_entropy, probe=True), SMOOTH_EVALS), (partial(cdf_pareto, fractional_scale=True), 2)],
    "parametric": [(par_wall, {**PARAM_EVALS, "R": 1})],
}


def probes(workload: str, seed: int) -> list[Item]:
    """The workload's known-defect items for this seed."""
    return [family(ItemRandom(workload, "defect-", seed, k), plan, 0)
            for k, (family, plan) in enumerate(KNOWN_DEFECTS[workload])]


def item(workload: str, seed: int, k: int, stream: str = "") -> Item:
    """Item k of the workload's stream for this seed.  Warm-up draws from
    the stream "warmup-", whose shapes and values both differ."""
    slots = WORKLOADS[workload]
    family, plan = slots[k % len(slots)]
    return family(ItemRandom(workload, stream, seed, k), plan, k // BASE_ROTATION[workload])
