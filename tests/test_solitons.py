"""Tau construction, frames, field residuals and far-field profiles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kplab.errors import DegenerateFrame, InvalidBranch, RejectedConfig
from kplab.expsum import ExpSum
from kplab.solitons import (SolitonConfig, asymptotic_profile, frame_of,
                            theta_eval, wronskian_tau)

KP = (-2.0, -1.0, 0.5, 3.0)   # two-line type with crossing channels (2,3), (1,4)
KO = (-2.0, -1.0, 1.0, 2.0)   # two-line type with parallel-ordered channels (1,2), (3,4)


def p_config():
    return SolitonConfig("p_type", KP)


def o_config():
    return SolitonConfig("o_type", KO)


# ----- tau assembly -----


def test_p_type_tau_terms():
    tau = p_config().tau()
    k1, k2, k3, k4 = KP
    expected = {
        (1, 1, 0, 0): k2 - k1,
        (1, 0, 1, 0): k3 - k1,
        (0, 1, 0, 1): k4 - k2,
        (0, 0, 1, 1): k4 - k3,
    }
    assert tau.terms.keys() == expected.keys()
    for key, val in expected.items():
        assert abs(tau.terms[key] - val) < 1e-14


def test_o_type_tau_terms():
    tau = o_config().tau()
    k1, k2, k3, k4 = KO
    expected = {
        (1, 0, 1, 0): k3 - k1,
        (1, 0, 0, 1): k4 - k1,
        (0, 1, 1, 0): k3 - k2,
        (0, 1, 0, 1): k4 - k2,
    }
    assert tau.terms.keys() == expected.keys()
    for key, val in expected.items():
        assert abs(tau.terms[key] - val) < 1e-14


def test_one_line_field_matches_sech_formula():
    cfg = SolitonConfig("one_line", (-1.0, 1.0), pair=(1, 2))
    fld = cfg.field()
    rng = np.random.default_rng(3)
    x, y, t = rng.uniform(-5, 5, (3, 50))
    z = 0.5 * (theta_eval(cfg.kappa, 2, x, y, t) - theta_eval(cfg.kappa, 1, x, y, t))
    expect = 0.5 * (cfg.kappa[1] - cfg.kappa[0]) ** 2 / np.cosh(z) ** 2
    assert np.max(np.abs(fld.u(x, y, t) - expect)) < 1e-12
    assert abs(fld.u(0.0, 0.0, 0.0) - 2.0) < 1e-14  # peak height 2c


def test_vacuum_is_flat():
    for kappa in ((), (-1.0, 0.5, 2.0)):
        fld = SolitonConfig("vacuum", kappa).field()
        assert np.max(np.abs(fld.u([-3.0, 0.0, 2.0], 1.0, 0.5))) < 1e-12


# ----- rejection -----


def test_rejects_unordered_phases():
    with pytest.raises(RejectedConfig):
        SolitonConfig("p_type", (-1.0, -1.0, 0.5, 3.0))
    with pytest.raises(RejectedConfig):
        SolitonConfig("o_type", (1.0, 0.0, 2.0, 3.0))


def test_rejects_negative_minor():
    with pytest.raises(RejectedConfig):
        wronskian_tau((-1.0, 1.0), np.array([[1.0], [-1.0]]))


def test_rejects_rank_deficiency():
    with pytest.raises(RejectedConfig):
        wronskian_tau(KP, np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]))


def test_rejects_bad_pair_and_kind():
    with pytest.raises(RejectedConfig):
        SolitonConfig("one_line", (-1.0, 1.0), pair=(1, 3))
    with pytest.raises(RejectedConfig):
        SolitonConfig("x_type", (-1.0, 1.0))
    with pytest.raises(RejectedConfig):
        SolitonConfig("p_type", (-1.0, 1.0, 2.0))


# ----- frames -----


def test_frame_speeds_crossing_type():
    fr = frame_of(p_config())
    assert abs(fr.b1 - 17.0 / 6.0) < 1e-12
    assert abs(fr.b2 - 25.0 / 6.0) < 1e-12
    for ch in fr.channels:
        resid = fr.b1 + 2.0 * ch.a * fr.b2 - ch.omega
        assert abs(resid) < 1e-12 * max(1.0, abs(ch.omega))


def test_frame_speeds_ordered_type():
    fr = frame_of(o_config())
    assert abs(fr.b1 - 7.0) < 1e-12
    assert abs(fr.b2 - 0.0) < 1e-12


def test_frame_requires_two_channels():
    with pytest.raises(DegenerateFrame):
        frame_of(SolitonConfig("one_line", (-1.0, 1.0), pair=(1, 2)))


def test_field_is_steady_in_frame():
    for cfg in (p_config(), o_config()):
        fr = frame_of(cfg)
        fld = cfg.field()
        rng = np.random.default_rng(17)
        x0, y0 = rng.uniform(-4, 4, (2, 30))
        base = fld.u(x0, y0, 0.0)
        for s in (0.7, 2.0):
            moved = fld.u(x0 + fr.b1 * s, y0 + fr.b2 * s, s)
            assert np.max(np.abs(moved - base)) < 1e-9


# ----- field equation -----


def test_field_equation_residual_both_types():
    rng = np.random.default_rng(23)
    for cfg in (p_config(), o_config()):
        fld = cfg.field()
        x = rng.uniform(-8, 8, 200)
        y = rng.uniform(-8, 8, 200)
        t = rng.uniform(-2, 2, 200)
        res, scale = fld.kpii_residual(x, y, t)
        assert np.max(res / scale) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4, unique=True),
       st.sampled_from(["p_type", "o_type"]),
       st.integers(0, 2 ** 31 - 1))
def test_field_equation_residual_over_kappa(raw, kind, seed):
    kappa = tuple(sorted(raw))
    assume(min(b - a for a, b in zip(kappa, kappa[1:])) >= 0.1)
    fld = SolitonConfig(kind, kappa).field()
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-8, 8, (2, 200))
    t = rng.uniform(-2, 2, 200)
    res, scale = fld.kpii_residual(x, y, t)
    rel = res / scale
    assert np.all(np.isfinite(rel))
    assert np.max(rel) < 1e-9


def test_residual_detects_broken_coefficient():
    cfg = p_config()
    tau = cfg.tau()
    bad_terms = dict(tau.terms)
    key = next(iter(bad_terms))
    bad_terms[key] = bad_terms[key] * 1.01
    bad = ExpSum(tau.gens, bad_terms)
    fld = cfg.field()
    fld.tau = bad
    rng = np.random.default_rng(29)
    x, y, t = rng.uniform(-4, 4, (3, 100))
    res, scale = fld.kpii_residual(x, y, t)
    assert np.max(res / scale) > 1e-3


def test_no_overflow_far_out():
    cfg = SolitonConfig("p_type", (-9.5, -3.0, 2.0, 10.0))
    fld = cfg.field()
    pts = np.array([-1e3, -31.7, 0.0, 407.0, 1e3])
    vals = fld.u(pts, -1e3, 0.0)
    assert np.isfinite(vals).all()
    vals = fld.u(pts, 1e3, 0.5)
    assert np.isfinite(vals).all()


# ----- far-field profiles -----


def test_far_field_sum_of_profiles():
    for cfg in (p_config(), o_config()):
        fld = cfg.field()
        x = np.linspace(-60.0, 60.0, 241)
        for y_sign in (1, -1):
            y = 40.0 * y_sign
            total = np.zeros_like(x)
            for pair in cfg.channel_pairs():
                total = total + asymptotic_profile(cfg, pair, y_sign).eval(x, y, 0.0)
            assert np.max(np.abs(fld.u(x, y, 0.0) - total)) < 1e-8


def test_profile_shift_values_crossing_type():
    cfg = p_config()
    k1, k2, k3, k4 = KP
    # channel slopes order the far-field labels: a_14 > a_23 here
    mu = asymptotic_profile(cfg, (2, 3), 1).mu
    assert abs(mu - 0.5 * np.log((k4 - k3) / (k4 - k2))) < 1e-14
    mu = asymptotic_profile(cfg, (2, 3), -1).mu
    assert abs(mu - 0.5 * np.log((k3 - k1) / (k2 - k1))) < 1e-14
    mu = asymptotic_profile(cfg, (1, 4), 1).mu
    assert abs(mu - 0.5 * np.log((k4 - k2) / (k2 - k1))) < 1e-14
    mu = asymptotic_profile(cfg, (1, 4), -1).mu
    assert abs(mu - 0.5 * np.log((k4 - k3) / (k3 - k1))) < 1e-14


def test_profile_rejects_foreign_pair():
    with pytest.raises(InvalidBranch):
        asymptotic_profile(p_config(), (1, 2), 1)
    with pytest.raises(InvalidBranch):
        asymptotic_profile(SolitonConfig("vacuum", (-1.0, 1.0)), (1, 2), 1)
    with pytest.raises(InvalidBranch):
        asymptotic_profile(p_config(), (2, 3), 0)


# ----- property: admissible phases keep tau positive -----


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-9.0, 9.0), min_size=4, max_size=4, unique=True),
       st.sampled_from(["p_type", "o_type"]),
       st.integers(0, 2 ** 31 - 1))
def test_tau_positive_for_admissible_phases(raw, kind, seed):
    kappa = tuple(sorted(raw))
    if min(b - a for a, b in zip(kappa, kappa[1:])) < 1e-3:
        return
    cfg = SolitonConfig(kind, kappa)
    rng = np.random.default_rng(seed)
    x, y, t = rng.uniform(-20, 20, (3, 20))
    m, s = cfg.tau().eval_scaled(x, y, t)
    assert np.all(s.real > 0)
    assert np.max(np.abs(s.imag)) < 1e-12 * np.max(s.real)
