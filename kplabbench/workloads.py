"""The benchmark's workloads and the residual gate every op passes.

A workload's ``setup(kp, rng)`` takes the freshly imported kplab package
and a seeded generator, builds the workload inputs and returns ``op``.
Each call of ``op()`` runs one op through kplab's public functions and
returns ``(residuals, points)``: every residual the op produced, and its
residual-point evaluations (sample points, grid points or panel nodes
times the identities checked).  The first call is the warm-up op.

Every op samples where the library's own defaults sample.  Far-field
points are left out on purpose: there the dual waves of
``level_shift_residuals`` overflow to NaN once |x| reaches about 200, a
known defect that belongs to a parameter sweep, not to a benchmark whose
ops must all pass.

Layer shares quoted below are self-time shares of one op from the traced
run (``run.py --trace 1``) on a 2-core x86-64 container with CPython 3.11
and numpy 2.4.
"""
from __future__ import annotations

import numpy as np

# Bounds the repository's tests already use for each identity.
REPORT_BOUND = 1e-9
KP_BOUND = 1e-9
ROUNDTRIP_BOUND = 1e-7

KAPPA_P = (-2.0, -1.0, 0.5, 3.0)
KAPPA_O = (-2.0, -1.0, 1.0, 2.0)


def gate(residuals, bound: float) -> tuple[bool, float]:
    """NaN-strict check of one op: every residual finite and at most bound.

    Returns (passed, worst).  The worst residual comes from np.max, which
    returns NaN whenever a NaN is present; Python's max would drop it or
    keep it depending on order.
    """
    r = np.asarray(residuals, dtype=float).ravel()
    if r.size == 0:
        return False, float("nan")
    passed = bool(np.all(np.isfinite(r)) and np.all(r <= bound))
    return passed, float(np.max(r))


class Report:
    """``identity_report`` on fresh sample points: 78 keys over P and O type.

    One op checks the report on ``reports`` fresh point sets, so that an op
    lasts about a second.  Ops much shorter than the bursts in which other
    tenants slow a shared core make the median op time jump between the
    fast and the slow speed from run to run.
    """

    bound = REPORT_BOUND

    def __init__(self, npts: int, reports: int):
        self.npts = npts
        self.reports = reports

    def setup(self, kp, rng):
        def op():
            vals = []
            for _ in range(self.reports):
                seed = int(rng.integers(2**31 - 1))
                rep = kp.darboux.identity_report(seed=seed, npts=self.npts)
                vals.extend(rep.values())
            return np.asarray(vals, dtype=float), self.npts * len(vals)
        return op


class KpGrid:
    """``SolitonField.kpii_residual`` of the P- and O-type fields on a grid.

    Each op shifts the 384 x 384 (x, y) grid by a seeded offset, fixes a
    seeded t and checks both fields there, keeping every point inside the
    box the field tests sample.
    """

    bound = KP_BOUND
    n = 384
    half_width = 7.5

    def setup(self, kp, rng):
        cfg = kp.solitons.SolitonConfig
        fields = (cfg("p_type", KAPPA_P).field(), cfg("o_type", KAPPA_O).field())
        base = np.linspace(-self.half_width, self.half_width, self.n)

        def op():
            sx, sy = rng.uniform(-0.5, 0.5, 2)
            t = rng.uniform(-2.0, 2.0)
            x, y = (base + sx)[:, None], (base + sy)[None, :]
            rel = []
            for field in fields:
                res, scale = field.kpii_residual(x, y, t)
                rel.append(res / scale)
            return np.stack(rel), sum(r.size for r in rel)
        return op


CP = 0.5625
# (c, eta, alpha, window, sign, low, input): the round-trip cases of the
# channel-inverse tests; "transformed" feeds the plus transform of the bump.
CHANNEL_CASES = (
    (CP, 2.0, 0.3, None, 1, False, "bump"),
    (CP, 2.0, 0.3, None, -1, False, "bump"),
    (CP, 0.0, 0.3, None, -1, True, "bump"),
    (CP, 0.3, 0.3, None, -1, True, "bump"),
    (CP, 0.0, 0.3, None, 1, True, "transformed"),
    (0.25, 0.3 + 0.18j, 0.03, 96, 1, False, "bump"),
    (0.25, 0.3 - 0.18j, 0.03, 96, -1, False, "bump"),
)


class Channel:
    """The seven ``t1_roundtrip`` cases, each on a fresh ``OneDimDarboux``.

    The seed only orders the cases within an op; the work is the same.
    """

    bound = ROUNDTRIP_BOUND

    def setup(self, kp, rng):
        d = kp.darboux

        def op():
            errs, nodes = [], 0
            for i in rng.permutation(len(CHANNEL_CASES)):
                c, eta, alpha, window, sign, low, kind = CHANNEL_CASES[i]
                chan = d.OneDimDarboux(c, eta, alpha=alpha, window=window)
                f = d.bump_profile(c)
                if kind == "transformed":
                    f = chan.m_apply(1, f)
                errs.append(d.t1_roundtrip(chan, sign, f, low=low))
                nodes += chan.grid.z.size
            return np.array(errs), nodes
        return op


# Why each workload is in the benchmark (self-time shares of one op).
# identity_report at thousands of points, where ExpSum.eval_scaled would
# dominate, is left out: there about one op in a few hundred exceeds the
# 1e-9 report bound (o_shift_wave_step_ch34 reaches 2.9e-9 on the sample
# points of seed 1025828390 at 5000 points), because max-part
# normalization misses cancellation inside a part.  Such a workload
# cannot pass until the residual normalization is fixed.
WORKLOADS = {
    # L0 algebra (ExpSum/Rational arithmetic and partials) 66%, point
    # evaluation 25%, identity reducers 10%: symbolic assembly shows here.
    "report_small": Report(npts=16, reports=8),
    # log_derivatives 98%, no algebra, peak memory ~300 MB: evaluation
    # through the quotient recursion over 42 partials, and a vectorisation
    # that trades memory for speed shows in peak_rss_mb.
    "kp_grid": KpGrid(),
    # Panel calculus 88% (legval per panel), exp_cumulative 12%, no expsum
    # work: the only workload on the channel inverses.
    "channel_inverse": Channel(),
}
