"""Outside-in layer trace of the library.

The library has no instrumentation of its own, so the traced run wraps
layer entry points from outside.  Modules import each other's functions
with ``from .x import f``, so a function is replaced in every
``pwconvex.*`` namespace that binds it, not only where it is defined;
methods are replaced on their class.

For each layer the wrapper records

* ``calls``: activations entered from outside the layer (a call nested in
  another call of the same layer is not counted again),
* ``total``: the wall time of those outermost activations,
* ``self``: wall time minus the time covered by nested wrapped calls of
  any layer, summed over all activations.

Metrics are normalised per attempted op, so they do not depend on run
length.  Counts repeat exactly for a fixed seed; times do not.
"""

from __future__ import annotations

import sys
import time

# layer -> entry points, as (module, attribute) or (module, class, method)
LAYERS = {
    "expr.parse": [("expr", "parse_expr"), ("expr", "_parse_expr")],
    "expr.evaluate": [("expr", "evaluate")],
    "expr.bisect": [("expr", "_eval_implicit")],
    "expr.quadrature": [("expr", "_eval_quadrature")],
    "simplify": [("simplify", "simplify")],
    "assumptions.compare": [("assumptions", "AssumptionEnv", "compare")],
    "assumptions.infeasible": [("assumptions", "_infeasible")],
    "assumptions.feasible_point": [("assumptions", "AssumptionEnv", "feasible_point")],
    "limits": [("limits", "one_sided_limit"), ("limits", "limit_at_infinity"), ("limits", "limit_at")],
    "limits.probe": [("limits", "_probe")],
    "inverse.invert": [("inverse", "invert_monotone")],
    "inverse.check_monotone": [("inverse", "check_strictly_monotone")],
    "pwf.build": [("pwf", "build_function")],
    "pwf.classify": [("pwf", "classify_piece")],
    "pwf.eval": [("pwf", "eval_pwf")],
    "monop.build": [("monop", "build_operator")],
    "monop.validate": [("monop", "validate_operator")],
    "monop.invert": [("monop", "invert")],
    "monop.eval": [("monop", "eval_op")],
    "conv.integ": [("conv", "integ")],
    "conv.antiderivative": [("conv", "antiderivative")],
    "risk.superexpectation": [("risk", "superexpectation")],
    "risk.superquantile": [("risk", "superquantile")],
    "penalty.recover": [("penalty", "recover_penalty")],
    "penalty.verify": [("penalty", "verify_penalty")],
    "oracle.sample_graph": [("oracle", "sample_graph")],
    "render": [("render", name) for name in ("render_function", "render_operator", "render_set",
                                             "function_to_json", "operator_to_json", "setvalue_to_json")],
}

# per-layer metric -> (end-to-end metric it should move, on which workloads)
MOVES = {
    "expr.parse": "parse_ms_p50 on all workloads",
    "expr.evaluate": "eval_us_p50 on smooth and plq",
    "expr.bisect": "eval_us_p50 and prox_ms_p50 on smooth; about 0 on plq",
    "expr.quadrature": "eval_us_p95 and risk_ms_p50 on smooth",
    "simplify": "every build p50 on plq and parametric",
    "assumptions": "build p50s on parametric; a larger share there than on plq",
    "assumptions.compare": "build p50s on parametric",
    "assumptions.infeasible": "build p50s on parametric",
    "assumptions.feasible_point": "parse_ms_p50 and prox_ms_p50 on parametric",
    "limits": "conj_ms_p50 and biconj_ms_p50 on smooth",
    "inverse": "prox_ms_p50 on smooth and plq, and exact_ratio",
    "pwf": "parse_ms_p50 on smooth, and eval_us_p50",
    "monop": "subdiff_ms_p50 and prox_ms_p50 on plq, and eval_us_p50",
    "conv": "conj_ms_p50 on smooth, and exact_ratio",
    "risk": "risk_ms_p50",
    "penalty": "penalty_ms_p50 on plq",
    "oracle": "penalty_ms_p50 on plq",
    "render": "build p50s",
    "numeric": "eval_us_p50 and eval_us_p95 on smooth; about 0 on plq",
    "trace": "none: the cost of tracing itself",
}


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.activations = {name: 0 for name in LAYERS}  # nested ones too
        self.total = {name: 0.0 for name in LAYERS}
        self.self_time = {name: 0.0 for name in LAYERS}
        self.depth = {name: 0 for name in LAYERS}
        self.stack = []  # child time accumulated by each open span
        self.numeric = []  # open bisect/quadrature spans: [layer, evaluate count]
        self.evals = {"expr.bisect": 0, "expr.quadrature": 0}
        self.implicit = 0  # invert_monotone results that are implicit inverses
        self.numeric_antiderivative = 0  # antiderivative gave up (quadrature)
        self.numeric_time = 0.0  # wall time inside any bisect/quadrature span
        self.envs_seen = set()
        self.feasible_repeats = 0
        self._restore = []

    def wrap(self, name, fn, inspect=None):
        clock = time.perf_counter
        stack, depth = self.stack, self.depth
        calls, total, self_time = self.calls, self.total, self.self_time
        activations = self.activations
        numeric = self.numeric
        counts_evals = name == "expr.evaluate"
        opens_numeric = name in self.evals

        def wrapper(*args, **kwargs):
            outer = depth[name] == 0
            if outer:
                calls[name] += 1
            depth[name] += 1
            activations[name] += 1
            if counts_evals and numeric:
                numeric[-1][1] += 1
            if opens_numeric:
                numeric.append([name, 0])
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                self_time[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if outer:
                    total[name] += dt
                if opens_numeric:
                    layer, n = numeric.pop()
                    self.evals[layer] += n
                    if not numeric:
                        self.numeric_time += dt
            if inspect is not None:
                inspect(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _inspect_invert(self, args, result):
        if type(result).__name__ == "ImplicitInverse":
            self.implicit += 1

    def _inspect_antiderivative(self, args, result):
        if result is None:
            self.numeric_antiderivative += 1

    def _inspect_feasible(self, args, result):
        env = args[0]
        if env in self.envs_seen:
            self.feasible_repeats += 1
        self.envs_seen.add(env)

    def install(self):
        """Replace every entry point in every library namespace."""
        inspectors = {"inverse.invert": self._inspect_invert,
                      "conv.antiderivative": self._inspect_antiderivative,
                      "assumptions.feasible_point": self._inspect_feasible}
        modules = [m for n, m in sys.modules.items() if n == "pwconvex" or n.startswith("pwconvex.")]
        for name, entries in LAYERS.items():
            for entry in entries:
                home = sys.modules["pwconvex." + entry[0]]
                if len(entry) == 3:
                    cls = getattr(home, entry[1])
                    original = cls.__dict__[entry[2]]
                    setattr(cls, entry[2], self.wrap(name, original, inspectors.get(name)))
                    self._restore.append((cls, entry[2], original))
                    continue
                original = getattr(home, entry[1])
                wrapped = self.wrap(name, original, inspectors.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self, ops: int, busy: float, overhead_ratio: float, cache_hits: int, cache_calls: int) -> dict:
        """Per-layer metrics, normalised per attempted op; the shares are
        fractions of the ``busy`` seconds spent in library calls."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def ratio(a, b):
            return a / b if b else 0.0

        per_op = {name: (self.calls[name] / ops, self.total[name] * 1e3 / ops, self.self_time[name] * 1e3 / ops)
                  for name in LAYERS}

        def calls(name):
            put(f"{name}.calls", per_op[name][0], "1/op")

        def total(name):
            put(f"{name}.total_ms", per_op[name][1], "ms/op")

        def self_ms(name):
            put(f"{name}.self_ms", per_op[name][2], "ms/op")

        calls("expr.parse"), self_ms("expr.parse")
        calls("expr.evaluate"), self_ms("expr.evaluate")
        for name in ("expr.bisect", "expr.quadrature"):
            calls(name), total(name)
            put(f"{name}.evals_per_call", ratio(self.evals[name], self.calls[name]), "1/call")
        calls("simplify"), self_ms("simplify")
        put("simplify.cache_hit_ratio", ratio(cache_hits, cache_calls), "ratio")
        for name in ("assumptions.compare", "assumptions.infeasible", "assumptions.feasible_point"):
            calls(name), self_ms(name)
        put("assumptions.feasible_point.repeat_ratio",
            ratio(self.feasible_repeats, self.activations["assumptions.feasible_point"]), "ratio")
        calls("limits"), self_ms("limits")
        calls("limits.probe")
        put("limits.probe.ratio", ratio(self.calls["limits.probe"], self.calls["limits"]), "ratio")
        calls("inverse.invert")
        put("inverse.invert.implicit_ratio", ratio(self.implicit, self.activations["inverse.invert"]), "ratio")
        calls("inverse.check_monotone"), total("inverse.check_monotone")
        total("pwf.build"), calls("pwf.classify"), total("pwf.classify"), self_ms("pwf.eval")
        for name in ("monop.build", "monop.validate", "monop.invert"):
            total(name)
        self_ms("monop.eval")
        total("conv.integ"), calls("conv.antiderivative")
        put("conv.antiderivative.numeric_ratio",
            ratio(self.numeric_antiderivative, self.activations["conv.antiderivative"]), "ratio")
        for name in ("risk.superexpectation", "risk.superquantile", "penalty.recover", "penalty.verify",
                     "oracle.sample_graph"):
            total(name)
        self_ms("render")
        # bisection and quadrature with the evaluations they make; the
        # assumption layers by self time, as their nested simplify calls
        # dominate on plq, where the environment is empty
        put("numeric.total_share", self.numeric_time / busy, "ratio")
        fm = ("assumptions.compare", "assumptions.infeasible", "assumptions.feasible_point")
        put("assumptions.self_share", sum(self.self_time[name] for name in fm) / busy, "ratio")
        put("trace.overhead_ratio", overhead_ratio, "ratio")
        return out


def moves(metric: str) -> str:
    layer = max((k for k in MOVES if metric.startswith(k)), key=len)
    return MOVES[layer]


def traced_run(warm_up, run_items, lines):
    """Run the items twice from the same state (simplify cache cleared,
    then warmed up): untraced, then traced.  ``run_items()`` runs them and
    returns their records.  Returns the traced pass's records and the
    per-layer metrics."""
    simplify = sys.modules["pwconvex.simplify"].simplify

    def one_pass(tracer=None):
        simplify.cache_clear()
        warm_up()
        before = simplify.cache_info()
        if tracer is not None:
            tracer.install()
        try:
            records = run_items()
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = simplify.cache_info()
        hits = after.hits - before.hits
        busy = sum(r.seconds for r in records)
        return records, sum(r.error is None for r in records) / busy, busy, hits, hits + after.misses - before.misses

    _, plain_rate, _, _, _ = one_pass()
    tracer = Tracer()
    records, traced_rate, busy, hits, lookups = one_pass(tracer)
    metrics = tracer.metrics(len(records), busy, plain_rate / traced_rate, hits, lookups)
    lines.append(f"traced {len(records)} ops; untraced {plain_rate:.1f} ops/s,"
                 f" traced {traced_rate:.1f} ops/s")
    for name, m in metrics.items():
        note = moves(name)
        if m["value"] == 0 and name.endswith(("_ratio", "_per_call")):
            note += "  (0: the layer made no calls of the counted kind in this run)"
        lines.append(f"{name:42s} {m['value']:12.6g} {m['unit']:6s} -> {note}")
    return records, metrics
