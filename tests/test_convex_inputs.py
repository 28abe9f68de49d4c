"""conj and biconj on generated closed proper convex functions with kinks
and walls (``convex_inputs.py``), against the brute-force sup of
``oracles.py``.

Every draw is valid, so a refusal is a defect; the ones left are values
at cell ends read by quadrature where an inverse runs off to infinity
(the (x^2 + 1)^(1/2) summand) and breakpoints of f* that are not
rational (the exp summands).  The floor below keeps them few.
"""

import math

from convex_inputs import convex_inputs
from oracles import brute_conjugate
from pwconvex import biconjugate, conjugate, eval_pwf, parse_pwf
from pwconvex.errors import InputError

SAMPLE = convex_inputs(11, 60)
ACCEPTED = 0.9
# off the quarter grid of the breakpoints
YS = (-2.9, -1.3, -0.4, 0.6, 1.7, 3.1)
XS = (-2.4, -1.1, -0.15, 0.35, 1.3, 2.6)
TOL = 1e-9


def close(lib: float, want: float) -> bool:
    return abs(lib - want) <= TOL * (1.0 + abs(want))


def test_conjugates_of_generated_convex_functions():
    conj_ok = biconj_ok = 0
    for case in SAMPLE:
        f = parse_pwf(case.text)
        try:
            g = conjugate(f)
        except InputError:
            continue
        conj_ok += 1
        for y in YS:
            # interior points of dom f* only: at its ends the sup may not be attained
            near = [float(eval_pwf(g, y + d)) for d in (-1e-3, 0.0, 1e-3)]
            if not any(math.isinf(v) for v in near):
                assert close(near[1], brute_conjugate(f, y, case.lo, case.hi)), (case.text, y)
        try:
            h = biconjugate(f)
        except InputError:
            continue
        biconj_ok += 1
        for x in XS:
            fx, hx = float(eval_pwf(f, x)), float(eval_pwf(h, x))
            assert hx == fx if math.isinf(fx) else close(hx, fx), (case.text, x)
    assert conj_ok >= ACCEPTED * len(SAMPLE), conj_ok
    assert biconj_ok >= ACCEPTED * len(SAMPLE), biconj_ok
