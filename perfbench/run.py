"""Benchmark of the pwconvex public API.

    python3 perfbench/run.py --workload plq --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One single-threaded process acts as a
closed-loop caller: it sends the next library call only when the last
one has returned.  Workloads (see families.py):

  plq         piecewise linear-quadratic inputs, the exact symbolic path
  smooth      transcendental and high-degree inputs, the numeric fallbacks
  parametric  symbolic parameters under seeded assumption sets

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps the library's layer entry points from outside
(tracer.py) and prints per-layer metrics instead.  Every result is
checked against the float reference in reference.py, outside the timed
region; the run is correct when no timed op fails.  Inputs that hit a
known defect are not timed: each run executes them once after the timed
part and reports whether they still fail.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import families
import reference as ref
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 9
SETUP_SNIPPET = "import pwconvex; pwconvex.eval_pwf(pwconvex.parse_pwf('abs(x)'), 1)"
# "load" reads a law or an operator: timed and in the build tail, but not
# in parse_ms_p50, which is the parse of a function
BUILD_KINDS = ("parse", "load", "subdiff", "conj", "biconj", "prox", "penalty", "risk")
# the object a build op consumes
INPUT_OF = {"subdiff": "f", "conj": "f", "biconj": "f", "prox": "f", "penalty": "T", "risk": "d"}
# traced runs process whole rotations, at most about --seconds/2 per pass
# at reference speed (a smooth rotation of 29 items takes about 2.5 s)
TRACE_ROTATIONS_PER_SECOND = {"plq": 1.5, "smooth": 0.14, "parametric": 1.5}
# warm-up items: enough to touch every lazy set-up (imports, quadrature tables)
WARMUP_ITEMS = 13


# ---------------------------------------------------------------------------
# CPU-speed normalisation
# ---------------------------------------------------------------------------

# The benchmark shares a machine whose speed drifts by up to 1.7x within
# minutes (neighbours, frequency scaling), and the same work then takes up
# to 1.7x longer in wall and in CPU time alike.  Every latency is therefore
# scaled by how fast a fixed pure-Python kernel ran next to it, which
# expresses it at the speed where the kernel takes REFERENCE_KERNEL_S.
# The kernel never touches the library, so library changes cannot move it.
REFERENCE_KERNEL_S = 2e-3
# re-measure the speed between ops at least this often (about 2% overhead)
SPEED_SAMPLE_EVERY_S = 0.1


def kernel() -> Fraction:
    """Fixed work in the library's idiom: rational arithmetic over a small
    tuple tree, walked recursively with type dispatch and memo lookups."""
    def build(depth, k):
        if depth == 0:
            return ("c", Fraction(k % 7 + 1, k % 5 + 2))
        return ("+" if k % 2 else "*", build(depth - 1, 2 * k), build(depth - 1, 2 * k + 1))

    def ev(node, memo):
        if node in memo:
            return memo[node]
        if node[0] == "c":
            v = node[1]
        elif node[0] == "+":
            v = ev(node[1], memo) + ev(node[2], memo)
        else:
            v = ev(node[1], memo) * ev(node[2], memo) / (1 + ev(node[2], memo))
        memo[node] = v
        return v

    return sum((ev(build(5, j), {}) for j in range(3)), Fraction(0))


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Speed:
    """Rolling estimate of the machine's speed from the kernel's time."""

    def __init__(self):
        self.recent = []
        self.factor = 1.0

    def sample(self) -> float:
        self.recent = (self.recent + [kernel_seconds()])[-3:]
        self.factor = REFERENCE_KERNEL_S / statistics.median(self.recent)
        return self.factor


class VerifyFailed(Exception):
    """verify_penalty rejected the recovered penalty."""


# ---------------------------------------------------------------------------
# Running one op
# ---------------------------------------------------------------------------


def run_op(lib, it, op, objs):
    """Execute one op; built objects go into ``objs`` under their target.
    Build ops render their result as JSON, as the CLI does."""
    kind, target = op.kind, op.target
    params = it.binding or None
    if kind in ("parse", "load"):
        env = lib.AssumptionEnv.parse(list(it.facts))
        if it.source == "pwf":
            obj = lib.parse_pwf(it.text, env)
            out = lib.function_to_json(obj)
        elif it.source == "operator":
            obj = lib.parse_operator(it.text, env)
            out = lib.operator_to_json(obj)
        else:
            make = lib.DistributionSpec.from_cdf if it.source == "cdf" else lib.DistributionSpec.from_quantile
            obj = make(it.text, env)
            out = lib.operator_to_json(obj.cdf_op)
    elif kind == "eval":
        obj = objs[target]
        if target in ("S", "R"):
            return lib.eval_op(obj, op.arg, params=params)
        return lib.eval_pwf(obj, op.arg, params=params)
    elif kind == "risk" and target != "E":
        fn = {"quantile": lib.quantile, "superquantile": lib.superquantile, "cvar": lib.cvar}[target]
        value = fn(objs["d"], op.arg)
        lib.to_text(value)
        return value
    else:
        if kind == "subdiff":
            obj = lib.subdifferential(objs["f"])
        elif kind == "conj":
            obj = lib.conjugate(objs["f"])
        elif kind == "biconj":
            obj = lib.biconjugate(objs["f"])
        elif kind == "prox":
            obj = lib.prox(objs["f"], it.lam)
        elif kind == "penalty":
            obj = lib.recover_penalty(objs["T"])
            report = lib.verify_penalty(objs["T"], obj)
            if not report.passed:
                raise VerifyFailed(f"max violation {report.max_violation}")
        else:
            obj = lib.superexpectation(objs["d"])
        render = lib.operator_to_json if isinstance(obj, lib.MonotoneOperator) else lib.function_to_json
        out = render(obj)
    json.dumps(out)
    objs[target] = obj
    return obj


class Record:
    """One attempted op: latency, raw result or error, exactness."""

    __slots__ = ("item", "op", "seconds", "value", "error", "exact", "ok")

    def __init__(self, item, op, seconds, value, error, exact):
        self.item, self.op, self.seconds = item, op, seconds
        self.value, self.error, self.exact = value, error, exact
        self.ok = error is None


def run_items(lib, items, deadline: float | None, speed: Speed):
    """Run the items' ops in order until the deadline (perf_counter time)
    passes.  Ops whose input object failed to build are not attempted.
    Latencies are recorded at reference speed."""
    records = []
    clock = time.perf_counter
    sampled = -math.inf
    for it in items:
        objs = {}
        for op in it.ops:
            if deadline is not None and clock() >= deadline:
                return records
            if clock() - sampled >= SPEED_SAMPLE_EVERY_S:
                factor = speed.sample()
                sampled = clock()
            dep = op.target if op.kind == "eval" else INPUT_OF.get(op.kind)
            if dep is not None and dep not in objs:
                continue
            t0 = clock()
            try:
                value = run_op(lib, it, op, objs)
                error = None
            except Exception as exc:  # the op failed; record it and go on
                value, error = None, exc
            dt = (clock() - t0) * factor
            exact = error is None and exact_result(lib, value)
            keep = value if op.kind == "eval" or (op.kind == "risk" and op.target != "E") else None
            records.append(Record(it, op, dt, keep, error, exact))
    return records


# ---------------------------------------------------------------------------
# Exactness and conversion of library results
# ---------------------------------------------------------------------------


def exact_expr(lib, e) -> bool:
    """No bisection or quadrature node and no float constant."""
    for node in lib.expr.walk(e):
        if isinstance(node, (lib.expr.ImplicitInverse, lib.expr.NumericIntegral)):
            return False
        if isinstance(node, lib.expr.Const) and isinstance(node.value, float):
            return False
    return True


def exact_result(lib, v) -> bool:
    """A value is exact when it is a Fraction, an int, +-inf or an exact
    expression; a built object when none of its parts holds a bisection
    or quadrature node."""
    if isinstance(v, (int, Fraction)):
        return True
    if isinstance(v, float):
        return math.isinf(v)
    if isinstance(v, lib.Expr):
        return exact_expr(lib, v)
    if isinstance(v, lib.SetValue):
        return all(exact_result(lib, b) for b in (v.lo, v.hi) if b is not None)
    if isinstance(v, lib.DistributionSpec):
        return exact_result(lib, v.cdf_op)
    parts = list(v.breakpoints) + [p.body for p in v.pieces if p.body is not None] + list(v.values)
    return all(exact_result(lib, p) for p in parts)


def to_float(lib, v, binding) -> float:
    if isinstance(v, lib.Expr):
        return float(lib.evaluate(v, params=binding or None))
    return float(v)


def set_bounds(lib, v, binding):
    """None for the empty set, else (lo, hi) in floats."""
    if v.tag == "empty":
        return None
    if v.tag == "all":
        return -math.inf, math.inf
    lo = v.lo if isinstance(v.lo, float) else to_float(lib, v.lo, binding)
    hi = v.hi if isinstance(v.hi, float) else to_float(lib, v.hi, binding)
    return lo, hi


# ---------------------------------------------------------------------------
# Checking against the float reference
# ---------------------------------------------------------------------------


def check(lib, records) -> None:
    """Mark records whose result disagrees with the reference as failed.
    A build op fails with any eval on the object it built."""
    by_item = {}
    for r in records:
        by_item.setdefault(id(r.item), []).append(r)
    for recs in by_item.values():
        it = recs[0].item
        bad_targets = set()
        base = None  # penalty evals compare differences against u = 0
        for r in recs:
            if not r.ok or not (r.op.kind == "eval" or (r.op.kind == "risk" and r.op.target != "E")):
                continue
            try:
                good = check_value(lib, it, r, base)
            except Exception as exc:  # conversion of the result failed
                good, r.error = False, exc
            if r.op.target == "p" and base is None:
                base = to_float(lib, r.value, it.binding) if good else math.nan
            if not good:
                r.ok = False
                r.error = r.error or AssertionError(f"{it.family} {r.op.kind} {r.op.target} at {r.op.arg}")
                bad_targets.add(r.op.target)
        for r in recs:
            if r.ok and r.op.kind != "eval" and r.op.target in bad_targets:
                r.ok = False
                r.error = AssertionError(f"{it.family} {r.op.kind}: its evaluations disagree with the reference")


def check_value(lib, it, r, base) -> bool:
    t, arg, b = r.op.target, float(r.op.arg), it.binding
    if t in ("S", "R"):
        got = set_bounds(lib, r.value, b)
        if t == "S":
            return ref.subgradient_ok(it.f, arg, got)
        lam = float(it.binding[it.lam] if isinstance(it.lam, str) else it.lam)
        want = ref.prox_at(it.f, arg, lam, *it.dom)
        return got is not None and got[0] == got[1] and ref.close(got[0], want)
    v = to_float(lib, r.value, b)
    if t in ("f", "h"):
        return ref.close(v, it.f(arg))
    if t == "g":
        return ref.close(v, ref.conjugate_at(it.f, arg, *it.dom, it.x0, it.slopes))
    if t == "E":
        return ref.close(v, it.dist.superexpectation(arg))
    if t == "quantile":
        return ref.close(v, it.dist.quantile(arg))
    if t in ("superquantile", "cvar"):
        return ref.close(v, it.dist.superquantile(arg))
    # t == "p": the penalty is known up to an additive constant
    want = it.penalty(arg)
    if base is None:
        return ref.close(v, want) if math.isinf(want) else True
    if math.isnan(base):
        return False
    return ref.close(v - base, want - it.penalty(0.0)) if math.isfinite(want) else v == want


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    s = sorted(samples)
    rank = max(1, math.ceil(p * len(s)))
    return s[rank - 1], len(s) - rank


def latencies(records, kinds) -> list[float]:
    # a failed op ranks as slower than every success
    return [r.seconds if r.ok else math.inf for r in records if r.op.kind in kinds]


def setup_seconds() -> float:
    """Median wall time of fresh interpreters that import the library
    and make one trivial call: what every CLI invocation pays.  A spawn
    lasts longer than the speed estimate's window, so the median is
    scaled once, by the median kernel time over the whole set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, kernels = [], []
    for _ in range(SETUP_SPAWNS):
        kernels += [kernel_seconds() for _ in range(3)]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * REFERENCE_KERNEL_S / statistics.median(kernels)


def end_to_end(records, setup_s: float, lines: list[str]) -> dict:
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:16s} {value:14.6g} {unit:6s} {note}")

    ok = [r for r in records if r.ok]
    busy = sum(r.seconds for r in records)
    put("setup_s", setup_s, "s", f"median of {SETUP_SPAWNS} fresh interpreters")
    put("ops_per_s", len(ok) / busy, "1/s", f"{len(ok)} successful ops in {busy:.3f} s of calls")
    put("exact_ratio", sum(r.exact for r in ok) / len(ok), "ratio", f"of {len(ok)} successful ops")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    put("peak_rss_mb", rss, "MB", "ru_maxrss of the workload process")
    for kind in ("parse", "subdiff", "conj", "biconj", "prox", "penalty", "risk"):
        v, beyond = percentile(latencies(records, (kind,)), 0.5)
        put(f"{kind}_ms_p50", v * 1e3, "ms", f"{beyond} samples beyond")
    v, beyond = percentile(latencies(records, BUILD_KINDS), 0.95)
    put("build_ms_p95", v * 1e3, "ms", f"{beyond} samples beyond")
    ev = latencies(records, ("eval",))
    for p, name in ((0.5, "eval_us_p50"), (0.95, "eval_us_p95")):
        v, beyond = percentile(ev, p)
        put(name, v * 1e6, "us", f"{beyond} samples beyond")
    return metrics


def report_failures(records, lines: list[str]) -> None:
    """List each distinct kind of failed op once."""
    seen = set()
    for r in records:
        key = (r.item.family, r.op.kind, r.op.target, type(r.error).__name__)
        if not r.ok and key not in seen:
            seen.add(key)
            lines.append(f"failed: {r.item.family} {r.op.kind} {r.op.target} -> "
                         f"{type(r.error).__name__}: {str(r.error)[:90]}")


def report_known_defects(lib, workload: str, seed: int, lines: list[str]) -> None:
    """Run each known-defect probe once, untimed, and say whether its
    tagged op still fails; a fix shows here as "no longer fails"."""
    for it in families.probes(workload, seed):
        records = run_items(lib, [it], None, Speed())
        check(lib, records)
        tagged = [r for r in records if r.op.known_defect]
        failing = [r for r in tagged if not r.ok]
        tag = next(op.known_defect for op in it.ops if op.known_defect)
        if failing:
            err = failing[0].error
            status = f"still fails ({type(err).__name__}: {str(err)[:60]})"
        else:
            status = "no longer fails" if tagged else "not reached: an earlier op failed"
        lines.append(f"known defect [{tag}] {it.family}: {status}")


def sample_counts(records, lines: list[str]) -> None:
    counts = {}
    for r in records:
        counts[r.op.kind] = counts.get(r.op.kind, 0) + 1
    lines.append("samples: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def load_library():
    if not (SRC / "pwconvex" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {SRC / 'pwconvex'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import pwconvex
    import pwconvex.expr

    return pwconvex


def settle_heap() -> None:
    """Collect, then freeze what survives, between library calls.  The
    records kept for checking grow the heap, and a full collection that
    scans them pauses a library call for about 50 ms; frozen objects are
    left out of later collections, and collecting first keeps cyclic
    garbage from being frozen, so memory does not grow with run length."""
    gc.collect()
    gc.freeze()


def warm_up(lib, workload: str, seed: int, speed: Speed) -> None:
    """Finish lazy set-up (imports, Gauss-Legendre tables) on inputs from
    a separate sub-seed, so the simplify cache is not pre-filled with the
    timed inputs."""

    run_items(lib, [families.item(workload, seed, k, stream="warmup-") for k in range(WARMUP_ITEMS)], None, speed)
    settle_heap()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["plq", "smooth", "parametric"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing decides some set orders inside the library; pin it
        # so that a seed replays the same calls and traced counts repeat
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env=env).returncode

    lib = load_library()

    speed = Speed()
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
             f"timings are scaled to the speed where a fixed kernel takes {REFERENCE_KERNEL_S * 1e3:g} ms"]
    if args.trace:
        rotation = len(families.WORKLOADS[args.workload])
        n = rotation * max(1, round(args.seconds * TRACE_ROTATIONS_PER_SECOND[args.workload]))
        items = [families.item(args.workload, args.seed, k) for k in range(n)]
        records, metrics = tracer.traced_run(lambda: warm_up(lib, args.workload, args.seed, speed),
                                             lambda: run_items(lib, items, None, speed), lines)
    else:
        setup_s = setup_seconds()
        warm_up(lib, args.workload, args.seed, speed)
        records, k = [], 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            batch = [families.item(args.workload, args.seed, k + j) for j in range(8)]
            k += len(batch)
            records += run_items(lib, batch, deadline, speed)
            settle_heap()
        metrics = None
    check(lib, records)
    report_failures(records, lines)
    sample_counts(records, lines)
    if metrics is None:
        metrics = end_to_end(records, setup_s, lines)
        report_known_defects(lib, args.workload, args.seed, lines)
    print("\n".join(lines))
    failed = sum(not r.ok for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
