"""Tests of the benchmark itself: the gate, the statistics and the traced run.

Run from the repository root:  python3 -m pytest kplabbench/tests -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
from measure import Checks, tail
from workloads import KpGrid, WORKLOADS, gate

BENCH = Path(measure.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path("kplabbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----- the residual gate -----


def test_gate_is_nan_strict_in_any_order():
    vals = [6.2e-13, float("nan")]
    assert not math.isnan(max(vals)) and math.isnan(max(reversed(vals)))
    for order in (vals, vals[::-1]):
        passed, worst = gate(order, 1e-9)
        assert not passed
        assert math.isnan(worst)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), 2e-9])
def test_gate_rejects_infinite_and_excess(bad):
    assert not gate([1e-15, bad], 1e-9)[0]


def test_gate_passes_small_and_rejects_empty():
    assert gate(np.array([[1e-15, 3e-10]]), 1e-9) == (True, 3e-10)
    assert not gate([], 1e-9)[0]


def test_checks_keep_nan_as_worst():
    checks = Checks(1e-9)
    for res in ([1e-12], [float("nan")], [1e-11]):
        checks(res)
    assert (checks.attempted, checks.failed) == (3, 1)
    assert math.isnan(checks.worst)


def test_corrupted_tau_fails_the_kp_gate():
    """A wrong coefficient in tau makes the field residual fail the gate."""
    kp = measure.fresh_kplab(ROOT / "src")
    wl = KpGrid()
    wl.n = 24
    op = wl.setup(kp, np.random.default_rng(3))
    residuals, points = op()
    assert gate(residuals, wl.bound)[0] and points == 2 * 24 * 24
    field = kp.solitons.SolitonConfig("o_type", (-2.0, -1.0, 1.0, 2.0)).field()
    tau = field.tau
    key = next(iter(tau.terms))
    field.tau = kp.expsum.ExpSum(tau.gens, {**tau.terms, key: tau.terms[key] * 1.01})
    base = np.linspace(-wl.half_width, wl.half_width, wl.n)
    res, scale = field.kpii_residual(base[:, None], base[None, :], 0.5)
    checks = Checks(wl.bound)
    checks(res / scale)
    assert checks.failed == 1


@pytest.mark.xfail(raises=AssertionError, reason=(
    "max-part normalization misses cancellation inside a part, so "
    "o_shift_wave_step exceeds 1e-9 on some sets of thousands of points"))
def test_report_on_many_points_passes_the_gate():
    kp = measure.fresh_kplab(ROOT / "src")
    rep = kp.darboux.identity_report(seed=1025828390, npts=5000)
    passed, worst = gate(list(rep.values()), 1e-9)
    assert passed, f"worst residual {worst:.2e}"


# ----- statistics -----


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail(list(range(40, 0, -1)))
    assert value == 30 and pct == 75.0
    with pytest.raises(ValueError):
        tail(range(10))


# ----- the contract with BENCHMARK.json -----


def test_spec_names_every_metric_the_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in measure.PER_LAYER]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in measure.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_untraced_run_reports_end_to_end_metrics():
    out = result_of(run_bench("--workload", "report_small", "--seed", "5",
                              "--seconds", "0", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 11
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in out["metrics"].items()}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "kplabbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "report_small", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----- the traced run -----

DOMINANT = {
    "report_small": "expsum.algebra_s",
    "kp_grid": "expsum.log_derivatives_s",
    "channel_inverse": "tanhexp.panel_s",
}
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"].startswith("count")]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_and_dominant_layer(name):
    args = ("--workload", name, "--seed", "7", "--seconds", "0", "--trace", "1")
    first, second = result_of(run_bench(*args)), result_of(run_bench(*args))
    assert first["correct"] and second["correct"]
    counts = [{k: r["metrics"][k]["value"] for k in COUNT_METRICS} for r in (first, second)]
    assert counts[0] == counts[1]
    selfs = {k: v["value"] for k, v in first["metrics"].items()
             if v["unit"] == "s/op" and k != "trace.other_s"}
    assert max(selfs, key=selfs.get) == DOMINANT[name]
