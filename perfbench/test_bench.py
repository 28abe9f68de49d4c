"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def test_generator_is_deterministic():
    for workload, slots in families.WORKLOADS.items():
        for k in range(len(slots)):
            a, b = families.item(workload, 7, k), families.item(workload, 7, k)
            assert (a.text, a.facts, a.binding, a.lam, a.ops) == (b.text, b.facts, b.binding, b.lam, b.ops)
    texts = [[families.item("plq", seed, k).text for k in range(7)] for seed in (1, 2)]
    assert texts[0] != texts[1]


def test_known_defects_are_probed_not_timed():
    for workload, slots in families.WORKLOADS.items():
        for k in range(len(slots)):
            assert not any(op.known_defect for op in families.item(workload, 7, k).ops)
        for it in families.probes(workload, 7):
            assert any(op.known_defect for op in it.ops)
    assert len(families.probes("smooth", 7)) == 2 and len(families.probes("parametric", 7)) == 1


def test_warm_up_inputs_differ_from_timed_inputs():
    timed = {families.item(w, 3, k).text for w in families.WORKLOADS for k in range(run.WARMUP_ITEMS)}
    warm = {families.item(w, 3, k, stream="warmup-").text for w in families.WORKLOADS for k in range(run.WARMUP_ITEMS)}
    # texts with few free rationals (a soft threshold at l, Pareto with m = 1)
    # can coincide; the rest come from a different stream
    assert len(timed & warm) <= len(timed) // 5


def run_plq_item(lib):
    it = families.item("plq", 11, 0)
    records = run.run_items(lib, [it], None, run.Speed())
    assert all(r.ok for r in records)
    return records


def test_checker_accepts_the_library_and_rejects_a_perturbed_result(lib):
    records = run_plq_item(lib)
    run.check(lib, records)
    assert all(r.ok for r in records)

    records = run_plq_item(lib)
    victim = next(r for r in records if r.op.kind == "eval" and r.op.target == "g")
    victim.value = run.to_float(lib, victim.value, {}) + 1e-3
    run.check(lib, records)
    assert not victim.ok
    conj = next(r for r in records if r.op.kind == "conj")
    assert not conj.ok  # the build fails with its evaluation
    assert all(r.ok for r in records if r.op.target in ("f", "S", "h", "R"))


def test_checker_rejects_a_wrong_prox_point(lib):
    records = run_plq_item(lib)
    victim = next(r for r in records if r.op.kind == "eval" and r.op.target == "R")
    victim.value = lib.SetValue("point", lib.as_expr(Fraction(1, 3)) + victim.value.lo,
                                lib.as_expr(Fraction(1, 3)) + victim.value.lo)
    run.check(lib, records)
    assert not victim.ok


def test_failed_op_ranks_slowest(lib):
    records = run_plq_item(lib)
    slowest = max(r.seconds for r in records)
    fast = min(records, key=lambda r: r.seconds)
    fast.ok = False
    samples = run.latencies(records, run.BUILD_KINDS + ("eval",))
    value, beyond = run.percentile(samples, 1.0)
    assert value == math.inf and beyond == 0
    assert run.percentile(samples, (len(samples) - 1) / len(samples))[0] == slowest


def traced(workload: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                          "--seconds", "1", "--trace", "1"], capture_output=True, text=True, check=True,
                         cwd=HERE.parent)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["plq", "parametric"])
def test_traced_counts_repeat_exactly(workload):
    a, b = traced(workload), traced(workload)
    assert a["attempted"] == b["attempted"] and a["failed"] == b["failed"]
    counted = [name for name in a["metrics"]
               if name.endswith((".calls", "_ratio", ".evals_per_call")) and name != "trace.overhead_ratio"]
    assert len(counted) >= 15
    for name in counted:
        assert a["metrics"][name] == b["metrics"][name], name
