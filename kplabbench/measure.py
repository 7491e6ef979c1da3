"""Set-up and op loops, statistics and the result lines of one benchmark run.

The untraced run sets up ``SETUPS`` times, each time importing kplab
afresh, building the workload inputs and running one warm-up op, and
reports the median set-up time.  It then runs ops back to back, one client
in a closed loop, until the time is up.  The traced run reports per-layer
self times and work counts, and the tracing overhead measured against
untraced ops of the same process.  Every op's residuals pass the gate in
``workloads``.
"""
from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import MODULES, Tracer
from workloads import WORKLOADS, gate

SETUPS = 3
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
MIN_TRACED_OPS = 3

# Per-layer metrics in output order, with units.  Self times are per op,
# except build_tau_s, which is measured over one traced set-up.
PER_LAYER = (
    ("expsum.algebra_s", "s/op"),
    ("expsum.algebra_calls", "count/op"),
    ("expsum.terms_built", "count/op"),
    ("solitons.build_tau_s", "s/setup"),
    ("expsum.eval_scaled_s", "s/op"),
    ("expsum.eval_scaled_calls", "count/op"),
    ("expsum.term_points", "count/op"),
    ("expsum.distinct_sums", "count/op"),
    ("expsum.log_derivatives_s", "s/op"),
    ("expsum.log_partials", "count/call"),
    ("darboux.identities_s", "s/op"),
    ("jost.identities_s", "s/op"),
    ("solitons.kpii_residual_s", "s/op"),
    ("tanhexp.exp_cumulative_s", "s/op"),
    ("tanhexp.panel_s", "s/op"),
    ("tanhexp.legval_calls", "count/op"),
    ("tanhexp.nodes", "count/op"),
    ("darboux.t1_apply_s", "s/op"),
    ("trace.other_s", "s/op"),
    ("trace.op_p50_s", "s"),
    ("trace.overhead_s", "s"),
)
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count/op")


def fresh_kplab(src: Path):
    """Import kplab from ``src`` as if for the first time in this process."""
    for name in [m for m in sys.modules if m == "kplab" or m.startswith("kplab.")]:
        del sys.modules[name]
    kp = importlib.import_module("kplab")
    for sub in MODULES:
        importlib.import_module(f"kplab.{sub}")
    if Path(kp.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"kplab was imported from {kp.__file__}, not from {src}")
    return kp


def tail(times) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile) for the sample with ten larger ones.
    """
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"a tail needs at least 11 samples, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Checks:
    """Counts ops and failed ops, and keeps the worst residual (NaN sticks)."""

    def __init__(self, bound: float):
        self.bound = bound
        self.attempted = 0
        self.failed = 0
        self.worst = -np.inf

    def __call__(self, residuals) -> None:
        passed, worst = gate(residuals, self.bound)
        self.attempted += 1
        self.failed += not passed
        self.worst = float(np.max([self.worst, worst]))


def _untraced(wl, seed: int, seconds: float, src: Path, checks: Checks):
    setup_times = []
    for _ in range(SETUPS):
        rng = np.random.default_rng(seed)
        t0 = perf_counter()
        kp = fresh_kplab(src)
        op = wl.setup(kp, rng)
        residuals, _ = op()
        setup_times.append(perf_counter() - t0)
        checks(residuals)
    times, points = [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(times) < MIN_OPS:
        t0 = perf_counter()
        residuals, pts = op()
        times.append(perf_counter() - t0)
        points += pts
        checks(residuals)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "points_per_s": (points / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_share": (1.0 - checks.failed / checks.attempted, "share"),
    }
    record = {"ops": len(times), "op_tail_percentile": round(tail_pct, 2),
              "points_per_op": points / len(times),
              "setup_s_samples": setup_times}
    return metrics, record


def _traced(name: str, wl, seed: int, seconds: float, src: Path, checks: Checks, out: Path):
    tracer = Tracer()
    kp = fresh_kplab(src)
    rng = np.random.default_rng(seed)
    tracer.begin_op(-1)
    tracer.install(kp)
    try:
        op = wl.setup(kp, rng)
        residuals, _ = op()
    finally:
        tracer.uninstall()
    checks(residuals)
    setup_self, _ = tracer.take()

    traced_times, untraced_times = [], []

    def run(traced: bool) -> None:
        if traced:
            tracer.begin_op(len(traced_times))
            tracer.install(kp)
        try:
            t0 = perf_counter()
            residuals, _ = op()
            elapsed = perf_counter() - t0
        finally:
            tracer.uninstall()
        (traced_times if traced else untraced_times).append(elapsed)
        checks(residuals)

    # The first traced op gives the work counts, which are the same in
    # every op; then untraced and traced ops alternate.
    run(True)
    tracer.end_op()
    counts = dict(tracer.counts)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(untraced_times) < MIN_TRACED_OPS:
        run(False)
        run(True)
    self_total, _ = tracer.take()

    n = len(traced_times)
    values = {f"{layer}_s": self_total.get(layer, 0.0) / n for layer in tracer.layers}
    values["solitons.build_tau_s"] = setup_self.get("solitons.build_tau", 0.0)
    for key in COUNTS:
        values[key] = counts.get(key, 0)
    calls = counts.get("expsum.log_derivatives_calls", 0)
    values["expsum.log_partials"] = counts.get("expsum.log_partials", 0) / calls if calls else 0.0
    values["trace.other_s"] = (sum(traced_times) - sum(self_total.values())) / n
    values["trace.op_p50_s"] = statistics.median(traced_times)
    values["trace.overhead_s"] = values["trace.op_p50_s"] - statistics.median(untraced_times)
    metrics = {key: (values[key], unit) for key, unit in PER_LAYER}

    spans = tracer.spans()
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps(spans))
    record = {"traced_ops": n, "untraced_ops": len(untraced_times),
              "spans": len(spans["op"]), "spans_file": str(path.relative_to(out.parent)),
              "work_counts_per_pass": counts}
    return metrics, record


def run(name: str, seed: int, seconds: float, trace: bool, src: Path, out: Path,
        blas_threads: int) -> int:
    wl = WORKLOADS[name]
    checks = Checks(wl.bound)
    if trace:
        metrics, record = _traced(name, wl, seed, seconds, src, checks, out)
    else:
        metrics, record = _untraced(wl, seed, seconds, src, checks)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
        "bound": wl.bound, "worst_residual": checks.worst,
        "fail_share": checks.failed / checks.attempted, **record,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
