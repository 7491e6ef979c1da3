"""Tau construction, frames, field residuals and far-field profiles."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kplab import solitons
from kplab.errors import DegenerateFrame, InvalidBranch, RejectedConfig
from kplab.expsum import BLOCK, ExpSum, log_derivatives, sum_residual
from kplab.solitons import (_KP_PARTIALS, SolitonConfig, asymptotic_profile, build_tau,
                            frame_of, potential, theta_gens, wronskian_tau)

from closed_forms import theta

KP = (-2.0, -1.0, 0.5, 3.0)   # two-line type with crossing channels (2,3), (1,4)
KO = (-2.0, -1.0, 1.0, 2.0)   # two-line type with parallel-ordered channels (1,2), (3,4)


def p_config():
    return SolitonConfig("p_type", KP)


def o_config():
    return SolitonConfig("o_type", KO)


def field_u(cfg, x, y, t):
    """u = 2 (log tau)_xx through its one route, the exact potential."""
    return potential(build_tau(cfg)).eval(x, y, t).real


# ----- tau assembly -----


def test_p_type_tau_terms():
    tau = build_tau(p_config())
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
    tau = build_tau(o_config())
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
    rng = np.random.default_rng(3)
    x, y, t = rng.uniform(-5, 5, (3, 50))
    z = 0.5 * (theta(cfg.kappa, 2, x, y, t) - theta(cfg.kappa, 1, x, y, t))
    expect = 0.5 * (cfg.kappa[1] - cfg.kappa[0]) ** 2 / np.cosh(z) ** 2
    assert np.max(np.abs(field_u(cfg, x, y, t) - expect)) < 1e-12
    assert abs(field_u(cfg, 0.0, 0.0, 0.0) - 2.0) < 1e-14  # peak height 2c


def test_vacuum_is_flat():
    for kappa in ((), (-1.0, 0.5, 2.0)):
        cfg = SolitonConfig("vacuum", kappa)
        assert np.max(np.abs(field_u(cfg, [-3.0, 0.0, 2.0], 1.0, 0.5))) < 1e-12


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


def test_tau_cache_is_bounded():
    """A sweep over phase speeds keeps at most 64 taus and generator tuples."""
    for i in range(100):
        build_tau(SolitonConfig("p_type", tuple(k + 0.01 * i for k in KP)))
    assert build_tau.cache_info().currsize <= 64
    assert theta_gens.cache_info().currsize <= 64


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
        rng = np.random.default_rng(17)
        x0, y0 = rng.uniform(-4, 4, (2, 30))
        base = field_u(cfg, x0, y0, 0.0)
        for s in (0.7, 2.0):
            moved = field_u(cfg, x0 + fr.b1 * s, y0 + fr.b2 * s, s)
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
    tau = build_tau(cfg)
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


def test_residual_at_a_nan_point_is_nan():
    x = np.linspace(-4.0, 4.0, 50)
    x[17] = np.nan
    for cfg in (p_config(), o_config()):
        res, scale = cfg.field().kpii_residual(x, 0.5, 0.2)
        rel = res / scale
        assert np.isnan(rel[17]) and np.isnan(np.max(rel))
        assert np.max(np.delete(rel, 17)) < 1e-9


def test_residual_peak_memory_is_a_few_grids():
    # numpy reports its buffers to tracemalloc.  The exponents, the point
    # stack, the dominant-term groups and the residual and its scale take
    # about 10 grids of float64; gathering the six partials into full grids
    # (about 14) or scratch the size of the grid would exceed the bound
    n = 512
    base = np.linspace(-7.5, 7.5, n)
    fld = p_config().field()
    fld.kpii_residual(base[:4, None], base[None, :4], 0.3)
    tracemalloc.start()
    try:
        fld.kpii_residual(base[:, None], base[None, :], 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * n * n, peak / (8 * n * n)


def _kp_reference(tau, x, y, t):
    """The KP-II residual and scale from partials gathered over all points first."""
    g = {key: val.real for key, val in
         log_derivatives(tau, (6, 2, 1), x, y, t, only=_KP_PARTIALS).items()}
    term_t = 8.0 * g[(3, 0, 1)]
    term_x4 = 2.0 * g[(6, 0, 0)]
    term_nl = 24.0 * (g[(3, 0, 0)] ** 2 + g[(2, 0, 0)] * g[(4, 0, 0)])
    term_y2 = 6.0 * g[(2, 2, 0)]
    return sum_residual([term_t, term_x4, term_nl, term_y2])


@pytest.mark.parametrize("rotate", [1.0, 1j], ids=["tau", "i_tau"])
@pytest.mark.parametrize("cfg", [
    SolitonConfig("p_type", KP), SolitonConfig("o_type", KO),
    SolitonConfig("one_line", (-1.0, 1.0), pair=(1, 2)),
    SolitonConfig("vacuum", (-1.0, 0.5, 2.0))], ids=["p", "o", "one_line", "vacuum"])
def test_blockwise_residual_is_byte_identical_to_gathered_partials(cfg, rotate):
    fld = cfg.field()
    fld.tau = rotate * fld.tau
    rng = np.random.default_rng(43)
    n = 4 * BLOCK + 37
    x, y = rng.uniform(-6.0, 6.0, (2, n))
    t = rng.uniform(-1.0, 1.0, n)
    # some dominant-term group spans several blocks and ends in a short one
    ph, _ = fld.tau.arrays()
    counts = np.bincount(np.argmax(ph.real @ np.stack([x, y, t]), axis=0))
    assert counts.max() > BLOCK and (counts % BLOCK).max() > 0
    x[[5, BLOCK + 7]] = np.nan
    t[2 * BLOCK - 1] = np.nan
    grid = np.linspace(-7.5, 7.5, 97)
    for pts in ((grid[:, None], grid[None, :] - 0.3, 0.37), (x, y, t)):
        with np.errstate(invalid="ignore"):  # division flags NaN operands
            got = fld.kpii_residual(*pts)
            want = _kp_reference(fld.tau, *pts)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("x, y, shape", [
    (np.empty(0), 0.5, (0,)), (np.empty((0, 1)), np.zeros((1, 5)), (0, 5))])
def test_residual_on_no_points_is_empty(x, y, shape):
    fld = p_config().field()
    for tau in (fld.tau, 1j * fld.tau):
        fld.tau = tau
        for val in fld.kpii_residual(x, y, 0.2):
            assert val.shape == shape and val.dtype == np.float64


def test_residual_makes_one_log_derivatives_call(monkeypatch):
    # the benchmark tracer times `log_derivatives` by this name and reads
    # `orders` as its second positional argument
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return log_derivatives(*args, **kwargs)

    monkeypatch.setattr(solitons, "log_derivatives", counted)
    base = np.linspace(-7.5, 7.5, 40)
    p_config().field().kpii_residual(base[:, None], base[None, :], 0.3)
    assert len(calls) == 1 and calls[0][1] == (6, 2, 1)


def test_no_overflow_far_out():
    cfg = SolitonConfig("p_type", (-9.5, -3.0, 2.0, 10.0))
    pts = np.array([-1e3, -31.7, 0.0, 407.0, 1e3])
    vals = field_u(cfg, pts, -1e3, 0.0)
    assert np.isfinite(vals).all()
    vals = field_u(cfg, pts, 1e3, 0.5)
    assert np.isfinite(vals).all()


def _far_points(cfg, rng, n: int) -> np.ndarray:
    """Points in the box |x|, |y|, |t| <= 1e3: n spread over it, and up to n
    within 3 of each channel's crest x = -(k_i + k_j) y + (k_i^2 + k_i k_j + k_j^2) t."""
    box = 1e3
    pts = [rng.uniform(-box, box, (3, n))]
    for i, j in cfg.channel_pairs():
        ki, kj = cfg.kappa[i - 1], cfg.kappa[j - 1]
        y, t = rng.uniform(-box, box, (2, n))
        x = -(ki + kj) * y + (ki * ki + ki * kj + kj * kj) * t + rng.uniform(-3.0, 3.0, n)
        inside = np.abs(x) <= box
        pts.append(np.stack([x[inside], y[inside], t[inside]]))
    return np.concatenate(pts, axis=1)


@pytest.mark.parametrize("cfg", [
    SolitonConfig("p_type", KP), SolitonConfig("o_type", KO),
    SolitonConfig("one_line", (-1.0, 1.0), pair=(1, 2)),
    SolitonConfig("vacuum", (-1.0, 0.5, 2.0))], ids=["p", "o", "one_line", "vacuum"])
def test_residual_reads_the_potential(cfg):
    """The u that kpii_residual reads off the log partials is `potential`."""
    tau = build_tau(cfg)
    rng = np.random.default_rng(41)
    near = rng.uniform(-8.0, 8.0, (3, 400)) * np.array([[1.0], [1.0], [0.25]])
    for (x, y, t), bound in ((near, 1e-12), (_far_points(cfg, rng, 400), 1e-10)):
        logged = 2.0 * log_derivatives(tau, (2, 0, 0), x, y, t, only=((2, 0, 0),))[(2, 0, 0)].real
        exact = field_u(cfg, x, y, t)
        # the vacuum field is zero, so there the difference is absolute
        scale = np.max(np.abs(exact)) or 1.0
        assert np.max(np.abs(logged - exact)) <= bound * scale


# ----- far-field profiles -----


def test_far_field_sum_of_profiles():
    for cfg in (p_config(), o_config()):
        x = np.linspace(-60.0, 60.0, 241)
        for y_sign in (1, -1):
            y = 40.0 * y_sign
            total = np.zeros_like(x)
            for pair in cfg.channel_pairs():
                line = asymptotic_profile(cfg, pair, y_sign).tau
                total = total + potential(line).eval(x, y, 0.0).real
            assert np.max(np.abs(field_u(cfg, x, y, 0.0) - total)) < 1e-8


def test_profile_tau_is_one_column_scaled_by_the_shift():
    """A far-field line is the one-column tau e^{theta_i} + e^{2 mu} e^{theta_j}."""
    for cfg in (p_config(), o_config()):
        for pair in cfg.channel_pairs():
            for y_sign in (1, -1):
                profile = asymptotic_profile(cfg, pair, y_sign)
                e_i, e_j = (tuple(int(m == n - 1) for m in range(4)) for n in pair)
                assert profile.pair == pair
                assert profile.tau.gens == theta_gens(cfg.kappa)
                assert profile.tau.terms == {e_i: 1.0, e_j: math.exp(2.0 * profile.mu)}


def _leading_gap(cfg, pair, y_sign):
    """How much faster the tied leading terms of tau grow along the crest of
    pair than the next term, per unit of y_sign * y."""
    k = cfg.kappa
    i, j = pair[0] - 1, pair[1] - 1
    rates = sorted({y_sign * sum((k[m] - k[i]) * (k[m] - k[j])
                                 for m, bit in enumerate(subset) if bit)
                    for subset in build_tau(cfg).terms}, reverse=True)
    return rates[0] - rates[1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4, unique=True),
       st.sampled_from(["p_type", "o_type"]))
def test_far_field_sum_of_profiles_over_admissible_phases(raw, kind):
    """Far out along every crest, within 20 widths of it, the field is the sum
    of the lines' potentials.  |y| puts the next term of tau e^{-35} below the
    leading pair on every crest, so what is left is the rounding of the
    phases, which grows with |theta|: relative to the largest field value,
    two sweeps of 1500 random draws each read at most 4.5e-15 times the
    largest |theta_m| on the points."""
    kappa = tuple(sorted(raw))
    assume(min(b - a for a, b in zip(kappa, kappa[1:])) >= 0.3)
    cfg = SolitonConfig(kind, kappa)
    try:
        lines = {(pair, y_sign): potential(asymptotic_profile(cfg, pair, y_sign).tau)
                 for pair in cfg.channel_pairs() for y_sign in (1, -1)}
    except InvalidBranch:  # channels of equal slope share their crest terms
        assume(False)
    far = 35.0 / min(_leading_gap(cfg, pair, y_sign) for pair, y_sign in lines)
    for y_sign in (1, -1):
        y = y_sign * far
        for i, j in cfg.channel_pairs():
            width = 2.0 / (kappa[j - 1] - kappa[i - 1])
            x = -(kappa[i - 1] + kappa[j - 1]) * y + width * np.linspace(-20.0, 20.0, 81)
            field = field_u(cfg, x, y, 0.0)
            total = sum(lines[pair, y_sign].eval(x, y, 0.0).real for pair in cfg.channel_pairs())
            phase = max(np.max(np.abs(theta(kappa, m, x, y, 0.0))) for m in range(1, 5))
            assert np.max(np.abs(field - total)) <= 2e-14 * phase * np.max(np.abs(field))


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


def test_profile_shift_values_parallel_type():
    cfg = o_config()
    k1, k2, k3, k4 = KO
    mu = asymptotic_profile(cfg, (1, 2), 1).mu
    assert abs(mu - 0.5 * np.log((k4 - k2) / (k4 - k1))) < 1e-14
    mu = asymptotic_profile(cfg, (1, 2), -1).mu
    assert abs(mu - 0.5 * np.log((k3 - k2) / (k3 - k1))) < 1e-14
    mu = asymptotic_profile(cfg, (3, 4), 1).mu
    assert abs(mu - 0.5 * np.log((k4 - k1) / (k3 - k1))) < 1e-14
    mu = asymptotic_profile(cfg, (3, 4), -1).mu
    assert abs(mu - 0.5 * np.log((k4 - k2) / (k3 - k2))) < 1e-14


def test_profile_rejects_parallel_channels():
    # a_14 = a_23: along either crest all four terms of tau lead together
    cfg = SolitonConfig("p_type", (-2.0, -1.0, 1.0, 2.0))
    for pair in cfg.channel_pairs():
        for y_sign in (1, -1):
            with pytest.raises(InvalidBranch):
                asymptotic_profile(cfg, pair, y_sign)


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
    m, s = build_tau(cfg).eval_scaled(x, y, t)
    assert np.all(s.real > 0)
    assert np.max(np.abs(s.imag)) < 1e-12 * np.max(s.real)
