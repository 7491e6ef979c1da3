"""Exactness and stability checks for the exponential-sum engine."""
from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from kplab.errors import MissingPrimitive
from kplab.expsum import (BLOCK, Carried, ExpSum, Rational, log_derivatives, sum_residual,
                          worst_residual)
from kplab.tanhexp import TanhExp

G1 = (1.0 + 0j, 1.0 + 0j, -1.0 + 0j)
G2 = (2.0 + 0j, 4.0 + 0j, -8.0 + 0j)
G3 = (-0.5 + 0j, 0.25 + 0j, 0.125 + 0j)


def _pts(rng, n=40, span=3.0):
    return (rng.uniform(-span, span, n), rng.uniform(-span, span, n), rng.uniform(-span, span, n))


# ----- ExpSum algebra -----


def test_merge_is_exact_across_assembly_orders():
    a = ExpSum.exponential(1.0, G1)
    b = ExpSum.exponential(1.0, G2)
    c = ExpSum.exponential(1.0, G3)
    left = (a * b) * c
    right = a * (b * c)
    diff = left - right
    assert diff.is_zero()


def test_difference_of_squares_cancels_exactly():
    a = ExpSum.exponential(1.0, G1)
    b = ExpSum.exponential(1.0, G2)
    prod = (a - b) * (a + b)
    assert len(prod.terms) == 2
    baseline = a * a - b * b
    assert (prod - baseline).is_zero()


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    s = ExpSum.exponential(1.3, G1) + ExpSum.exponential(0.7, G2) + ExpSum.exponential(-0.2, G3)
    x, y, t = _pts(rng, n=12, span=1.0)
    h = 1e-6
    for axis, d in (("x", s.dx()), ("y", s.dy()), ("t", s.dt())):
        shift = {"x": (h, 0, 0), "y": (0, h, 0), "t": (0, 0, h)}[axis]
        fd = (s.eval(x + shift[0], y + shift[1], t + shift[2])
              - s.eval(x - shift[0], y - shift[1], t - shift[2])) / (2 * h)
        assert np.max(np.abs(d.eval(x, y, t) - fd)) < 1e-7 * max(1.0, np.max(np.abs(fd)))


def test_scaled_eval_survives_huge_exponents():
    s = ExpSum.exponential(2.0, (10.0 + 0j, 100.0 + 0j, -1000.0 + 0j)) + ExpSum.constant(1.0)
    m, sc = s.eval_scaled(1.0e3, 1.0e3, 0.0)
    assert np.isfinite(sc).all()
    assert m == 110000.0
    g = log_derivatives(s, (2, 0, 0), 1.0e3, 1.0e3, 0.0)
    # far from the crossover the log derivative saturates at the phase slope
    assert abs(g[(1, 0, 0)] - 10.0) < 1e-12


# ----- log-derivative engine -----


def test_log_derivatives_against_quotient_expansion():
    rng = np.random.default_rng(5)
    tau = (ExpSum.exponential(0.9, G1) + ExpSum.exponential(1.4, G2)
           + ExpSum.exponential(0.33, G3) + ExpSum.constant(0.5))
    x, y, t = _pts(rng, n=25, span=1.5)
    g = log_derivatives(tau, (3, 1, 0), x, y, t)

    def ratio(i, j, k):
        part = tau
        for axis, n in zip(("dx", "dy", "dt"), (i, j, k)):
            for _ in range(n):
                part = getattr(part, axis)()
        return part.eval(x, y, t) / tau.eval(x, y, t)

    r100, r200, r300 = ratio(1, 0, 0), ratio(2, 0, 0), ratio(3, 0, 0)
    r010, r110, r210 = ratio(0, 1, 0), ratio(1, 1, 0), ratio(2, 1, 0)
    expect = {
        (1, 0, 0): r100,
        (2, 0, 0): r200 - r100 ** 2,
        (3, 0, 0): r300 - 3 * r200 * r100 + 2 * r100 ** 3,
        (0, 1, 0): r010,
        (1, 1, 0): r110 - r100 * r010,
        (2, 1, 0): r210 - r200 * r010 - 2 * r110 * r100 + 2 * r100 ** 2 * r010,
    }
    for key, val in expect.items():
        assert np.max(np.abs(g[key] - val)) < 1e-11, key


def _mixed_tau():
    """The real tau of the quotient-expansion test, and one with complex phases."""
    real = (ExpSum.exponential(0.9, G1) + ExpSum.exponential(1.4, G2)
            + ExpSum.exponential(0.33, G3) + ExpSum.constant(0.5))
    cplx = real + ExpSum.exponential(0.7, (0.4 + 1.1j, -0.3 + 0.5j, 0.2 - 0.6j))
    return real, cplx


def test_only_returns_the_closure_bit_for_bit():
    rng = np.random.default_rng(13)
    x, y, t = _pts(rng, n=60, span=4.0)
    orders = (4, 2, 2)
    box = set(product(range(5), range(3), range(3)))
    sets = ([(2, 0, 0)], [(1, 2, 0), (3, 0, 1)], [(0, 0, 2), (4, 0, 0)],
            [(2, 0, 0), (3, 0, 0), (4, 0, 0), (3, 0, 1), (2, 2, 0)], [orders])
    for tau in _mixed_tau():
        full = log_derivatives(tau, orders, x, y, t)
        assert set(full) == box
        for only in sets:
            got = log_derivatives(tau, orders, x, y, t, only=only)
            assert set(got) == set(only), only
            for key, val in got.items():
                assert val.dtype == full[key].dtype
                assert np.array_equal(val, full[key]), (only, key)


def test_only_outside_the_box_is_rejected():
    tau = _mixed_tau()[0]
    for only in ([(5, 0, 0)], [(2, 0, 0), (0, 3, 0)], [(0, 0, 3)], [(-1, 0, 0)], []):
        with pytest.raises(ValueError):
            log_derivatives(tau, (4, 2, 2), 0.1, 0.2, 0.3, only=only)
    for orders in ((-1, 0, 0), (2, 0, -3), (2, 0), (2, 0, 0, 0), (1.5, 0, 0)):
        for only in (None, [(0, 0, 0)]):
            with pytest.raises(ValueError):
                log_derivatives(tau, orders, 0.1, 0.2, 0.3, only=only)


def _wide_points(tau, n):
    """n seeded points at which every term of tau is the dominant one somewhere."""
    rng = np.random.default_rng(31)
    x, y, t = _pts(rng, n=n, span=6.0)
    ph, _ = tau.arrays()
    dom = np.argmax(ph.real @ np.stack([x, y, t]), axis=0)
    counts = np.bincount(dom, minlength=len(ph))
    assert counts.min() > 0 and counts.max() > BLOCK
    return x, y, t


def test_blocks_match_per_slice_calls():
    for tau in _mixed_tau():
        x, y, t = _wide_points(tau, 3 * BLOCK + 37)
        full = log_derivatives(tau, (3, 2, 1), x, y, t)
        for start in range(0, x.size, 1000):
            cut = slice(start, start + 1000)
            part = log_derivatives(tau, (3, 2, 1), x[cut], y[cut], t[cut])
            for key, val in part.items():
                err = np.max(np.abs(full[key][cut] - val))
                assert err <= 1e-13 * np.max(np.abs(val)), (key, start, err)


def test_nan_point_is_nan_in_every_partial_there_only():
    for tau in _mixed_tau():
        x, y, t = _wide_points(tau, 3 * BLOCK + 37)
        x[[5, BLOCK + 7]] = np.nan
        t[2 * BLOCK - 1] = np.nan
        bad = np.isnan(x) | np.isnan(t)
        only = [(0, 0, 0), (1, 0, 0), (3, 0, 1), (2, 2, 0)]
        with np.errstate(invalid="ignore"):  # complex division flags NaN operands
            got = log_derivatives(tau, (3, 2, 1), x, y, t, only=only)
        for key, val in got.items():
            assert np.array_equal(np.isnan(val), bad), key


def test_real_tau_runs_in_float64_and_agrees_with_rotated_tau():
    rng = np.random.default_rng(19)
    x, y, t = _pts(rng, n=50, span=4.0)
    tau = _mixed_tau()[0]
    g = log_derivatives(tau, (3, 2, 1), x, y, t)
    h = log_derivatives(1j * tau, (3, 2, 1), x, y, t)
    assert g[(0, 0, 0)].dtype == h[(0, 0, 0)].dtype == np.complex128
    for key in g:
        if key == (0, 0, 0):
            continue
        assert g[key].dtype == np.float64, key
        assert h[key].dtype == np.complex128, key
        # log(i tau) - log(tau) is constant, so every partial agrees
        assert np.max(np.abs(h[key] - g[key])) <= 1e-12 * np.max(np.abs(g[key])), key


def test_log_value_of_real_tau_that_changes_sign():
    tau = ExpSum.exponential(1.0, (1.0 + 0j, 0j, 0j)) - 2.0
    x = np.array([-1.0, 0.0, 0.3, 1.0])
    g = log_derivatives(tau, (1, 0, 0), x, 0.0, 0.0)
    assert np.all(np.isfinite(g[(0, 0, 0)]))
    assert np.max(np.abs(np.exp(g[(0, 0, 0)]) - (np.exp(x) - 2.0))) < 1e-14
    assert abs(g[(0, 0, 0)][1] - 1j * np.pi) < 1e-15
    assert np.max(np.abs(g[(1, 0, 0)] - np.exp(x) / (np.exp(x) - 2.0))) < 1e-13


def test_log_value_entry():
    tau = ExpSum.exponential(3.0, G1) + ExpSum.constant(1.0)
    g = log_derivatives(tau, (0, 0, 0), 0.3, -0.2, 0.1)
    assert abs(np.exp(g[(0, 0, 0)]) - tau.eval(0.3, -0.2, 0.1)) < 1e-12


# ----- residual primitive -----


def test_sum_residual_propagates_nan_from_any_part():
    ok = np.array([1.0, -2.0, 3.0])
    bad = np.array([1.0, np.nan, 3.0])
    for parts in ([bad, -ok, ok], [ok, -ok, bad]):
        res, scale = sum_residual(parts)
        ratio = res / scale
        assert np.isnan(ratio[1]) and np.isnan(np.max(ratio))
        assert np.all(np.isfinite(ratio[[0, 2]]))


def test_sum_residual_of_zero_parts_is_zero():
    res, scale = sum_residual([np.zeros(4), np.zeros(4)])
    assert np.all(res / scale == 0.0)
    assert np.all(scale == 1e-300)


def test_sum_residual_scales_by_largest_part():
    res, scale = sum_residual(iter([np.array([3.0 + 4j]), np.array([-1.0]), np.array([-2.0])]))
    assert res[0] == 4.0 and scale[0] == 5.0


def _line_parts():
    """tau^2 / tau - tau = 0 for tau = e^x + 1, as a Rational and an ExpSum."""
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    return [Rational.from_quotient(tau * tau, tau), -1.0 * tau]


@pytest.mark.parametrize("where", [0, 1, 2])
def test_worst_residual_propagates_nan_from_any_part(where):
    parts = _line_parts() + [ExpSum.constant(0.0)]
    parts[where] = parts[where] + ExpSum.constant(np.nan)
    assert np.isnan(worst_residual(parts, np.array([0.3, -1.0]), 0.0, 0.0))


def test_worst_residual_of_empty_parts_is_zero():
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    parts = [ExpSum.constant(0.0), Rational.from_quotient(ExpSum.constant(0.0), tau)]
    assert worst_residual(parts, np.array([0.3, 800.0]), 0.0, 0.0) == 0.0


def test_worst_residual_past_float_range_is_finite():
    parts = _line_parts()
    x = np.array([-900.0, 0.0, 750.0, 2000.0])
    m, _ = parts[0].eval_scaled(x, 0.0, 0.0)
    assert m[-1] > 1000.0  # the value itself is far past 1e308
    ratio = worst_residual(parts, x, 0.0, 0.0)
    assert np.isfinite(ratio) and ratio < 1e-15


def test_worst_residual_leaves_line_profiles_unscaled():
    f = TanhExp.sech(0.75, 2) + TanhExp.term(0.75, 0.6, mu=-0.5)
    zs = np.linspace(-5.0, 5.0, 11)
    res, scale = sum_residual([f.eval(zs), -0.5 * f.eval(zs), -0.25 * f.eval(zs)])
    assert worst_residual([f, -0.5 * f, -0.25 * f], zs) == float(np.max(res / scale))


def test_carried_prim_requires_primitive():
    value = TanhExp.sech(0.75, 2)
    with pytest.raises(MissingPrimitive):
        Carried(value).prim()
    prim = TanhExp.tanh(0.75, 1.0 / 0.75)
    assert (2.0 * Carried(value, xprim=prim)).prim().terms == (2.0 * prim).terms


# ----- Rational layer -----


def test_rational_quotient_rule_against_finite_differences():
    rng = np.random.default_rng(7)
    tau = ExpSum.exponential(1.0, G1) + ExpSum.exponential(2.0, G2) + ExpSum.constant(1.0)
    sig = ExpSum.exponential(0.5, G3) + ExpSum.constant(2.0)
    r = Rational.from_quotient(tau.dx(), tau, sig)
    x, y, t = _pts(rng, n=10, span=1.0)
    h = 1e-6
    for dr, shift in ((r.dx(), (h, 0, 0)), (r.dy(), (0, h, 0)), (r.dt(), (0, 0, h))):
        fd = (r.eval(x + shift[0], y + shift[1], t + shift[2])
              - r.eval(x - shift[0], y - shift[1], t - shift[2])) / (2 * h)
        assert np.max(np.abs(dr.eval(x, y, t) - fd)) < 2e-7 * max(1.0, np.max(np.abs(fd)))


def test_rational_sum_over_shared_bases():
    rng = np.random.default_rng(9)
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    a = Rational.from_quotient(ExpSum.constant(2.0), tau)
    b = Rational(ExpSum.exponential(1.0, G2)) / tau / tau
    x, y, t = _pts(rng, n=8, span=1.0)
    combo = a + b - 0.5
    direct = a.eval(x, y, t) + b.eval(x, y, t) - 0.5
    assert np.max(np.abs(combo.eval(x, y, t) - direct)) < 1e-13 * max(1.0, np.max(np.abs(direct)))


def test_rational_product_merges_identical_base():
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    a = Rational.from_quotient(ExpSum.constant(1.0), tau)
    prod = a * a
    assert prod.den == {tau: 2}
    # merges copy: the shared denominator of the operand is left alone
    assert (a / tau).den == {tau: 2} and (a + prod).den == {tau: 2}
    assert a.den == {tau: 1}


def _derived_operands():
    """(f, evaluate) over an ExpSum, a two-base Rational and a TanhExp."""
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    sig = ExpSum.exponential(0.5, G3) + ExpSum.constant(2.0)
    rng = np.random.default_rng(13)
    x, y, t = _pts(rng, n=9, span=1.0)
    z = np.linspace(-2.0, 2.0, 9)
    es = ExpSum.exponential(1.3, G1) + ExpSum.exponential(-0.7j, G2)
    rat = Rational.from_quotient(ExpSum.exponential(2.0, G2) + ExpSum.constant(0.5), tau, sig)
    th = TanhExp.tanh(0.7, 1.5) + TanhExp.term(0.7, 0.4 - 0.2j, 0, 2, mu=-0.3)
    return {"expsum": (es, lambda f: f.eval(x, y, t)),
            "rational": (rat, lambda f: f.eval(x, y, t)),
            "tanhexp": (th, lambda f: f.eval(z))}


@pytest.mark.parametrize("kind", ["expsum", "rational", "tanhexp"])
def test_derived_operators_match_pointwise_arithmetic(kind):
    f, ev = _derived_operands()[kind]
    g = f * f + 1.5
    fv, gv = ev(f), ev(g)
    cases = {"-f": (-f, -fv), "f - g": (f - g, fv - gv), "f - 2": (f - 2, fv - 2),
             "2 - f": (2 - f, 2 - fv), "2 + f": (2 + f, 2 + fv), "2 * f": (2 * f, 2 * fv),
             "f / 2": (f / 2, fv / 2)}
    for name, (algebra, direct) in cases.items():
        err = np.max(np.abs(ev(algebra) - direct))
        assert err <= 1e-13 * np.max(np.abs(direct)), (name, err)
