"""Channel profiles on the Rational algebra, and the weighted panel calculus."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kplab.darboux import _exp_line, _hyperbolic, bump_profile, kink_profile
from kplab.errors import ConfigMismatch, RegionViolation
from kplab.expsum import Carried
from kplab import tanhexp
from kplab.tanhexp import (PanelGrid, _edge_carry, _sweep_kernel, _unit_rule,
                           based_cumulative, exp_cumulative)

ZS = np.linspace(-7.0, 7.0, 57)


def on_line(f, z):
    """A channel profile's values at (z, 0, 0)."""
    return f.eval(z, 0.0, 0.0)


# ----- channel profiles -----


def test_tanh_square_reduces_to_sech():
    tanh, sech, *_ = _hyperbolic(0.8)
    # (e^2 - 1)^2 + 4 e^2 - (1 + e^2)^2 cancels term by term
    assert (tanh * tanh + sech * sech - 1.0).num.is_zero()
    expected = 1.0 - 1.0 / np.cosh(0.8 * ZS) ** 2
    assert np.max(np.abs(on_line(tanh * tanh, ZS) - expected)) < 1e-14


def test_negative_sech_power_is_cosh():
    _, sech, cosh, *_ = _hyperbolic(0.6)
    assert np.max(np.abs(on_line(cosh, ZS) - np.cosh(0.6 * ZS))) < 1e-12 * np.max(np.cosh(0.6 * ZS))
    assert np.max(np.abs(on_line(cosh * sech, ZS) - 1.0)) < 1e-15


def test_derivative_matches_difference_quotient():
    c, root = 0.5625, 0.75
    tanh, sech, *_ = _hyperbolic(root)
    # d(sqrt(c) tanh) = c sech^2, and the bump is the same sech^2
    exact = on_line(kink_profile(c).dx(), ZS)
    assert np.max(np.abs(exact - c * on_line(sech * sech, ZS))) < 1e-15
    assert np.array_equal(on_line(bump_profile(c).value, ZS), on_line(sech * sech, ZS))
    f = (1.3 * (tanh * tanh * sech * _exp_line(0.2 + 0.4j)) + 0.6 * _exp_line(-0.5)
         - 0.8 * (sech * sech * sech))
    h = 1e-6
    numeric = (on_line(f, ZS + h) - on_line(f, ZS - h)) / (2.0 * h)
    exact = on_line(f.dx(), ZS)
    assert np.max(np.abs(exact - numeric)) < 1e-7 * np.max(np.abs(exact))


def _ring_operands():
    """An ExpSum and a Rational channel profile."""
    tanh, sech, cosh, *_ = _hyperbolic(0.5)
    return {"expsum": cosh, "rational": tanh * sech}


# Ring's reflected forms call the forward method directly, so a foreign
# operand on either side reaches Python as a TypeError; Ring divides only by
# a scalar, and a Carried is a record with no arithmetic at all, so adding
# to, multiplying or scaling one is foreign too.
@pytest.mark.parametrize("combine", [
    lambda f: f + None,
    lambda f: f * "a",
    lambda f: Carried(f) + f,
    lambda f: f * Carried(f),
    lambda f: f + Carried(f),
    lambda f: f / f,
    lambda f: 2.0 * Carried(f),
    lambda f: Carried(f) + Carried(f),
], ids=["plus_none", "times_str", "plus_expsum", "expsum_times", "expsum_plus",
        "over_itself", "scalar_times_carried", "carried_plus_carried"])
def test_foreign_operand_is_a_type_error(combine):
    for f in _ring_operands().values():
        with pytest.raises(TypeError):
            combine(f)


def test_far_field_evaluation_is_stable():
    tanh, sech, *_ = _hyperbolic(0.75)
    f = 2.0 * (tanh * sech * sech * _exp_line(-0.1))
    far = on_line(f, np.array([-420.0, 420.0]))
    assert np.all(np.isfinite(far))
    assert np.all(np.abs(far) < 1e-200)


# ----- panel calculus -----


def test_grid_integral_and_derivative():
    grid = PanelGrid(-20, 20, per_unit=16)
    vals = 1.0 / np.cosh(0.75 * grid.z) ** 2
    assert abs(grid.integral(vals) - 2.0 / 0.75 * np.tanh(15.0)) < 1e-12
    dv = grid.derivative(np.sin(grid.z))
    assert np.max(np.abs(dv - np.cos(grid.z))) < 1e-9


@pytest.mark.parametrize("per_unit", [16, 48])
def test_grid_antiderivative_decays_on_the_right(per_unit):
    grid = PanelGrid(-20, 20, per_unit=per_unit)
    vals = 1.0 / np.cosh(0.75 * grid.z) ** 2
    got = grid.antiderivative(vals)
    expected = (np.tanh(0.75 * grid.z) - np.tanh(15.0)) / 0.75
    assert np.max(np.abs(got - expected)) < 1e-11


def test_grid_needs_two_panels():
    with pytest.raises(ConfigMismatch):
        PanelGrid(0, 1)


@pytest.mark.parametrize("build", [
    lambda: PanelGrid(-4.5, 4.5),
    lambda: PanelGrid(np.nan, 4),
    lambda: PanelGrid(-4, np.inf),
    lambda: PanelGrid(-4, 4, per_unit=0),
    lambda: PanelGrid(-4, 4, per_unit=-3),
    lambda: PanelGrid(-4, 4, per_unit=2.7),
    lambda: PanelGrid(-4, 4, per_unit=True),
    lambda: PanelGrid(-4, 4, per_unit=np.nan),
    lambda: PanelGrid(-4, 4, per_unit="8"),
], ids=["half_edges", "nan_edge", "inf_edge", "order_zero", "order_negative",
        "order_fractional", "order_bool", "order_nan", "order_str"])
def test_grid_input_must_be_integral(build):
    _unit_rule.cache_clear()
    with pytest.raises(ConfigMismatch):
        build()
    assert _unit_rule.cache_info().currsize == 0  # rejected before the rule lookup


def test_integral_floats_are_accepted():
    grid = PanelGrid(-4.0, np.int64(4), per_unit=8.0)
    assert (grid.lo, grid.hi, grid.order) == (-4.0, 4.0, 8)
    assert isinstance(grid.order, int)


# ----- the shared unit-panel rule -----

RULE_ARRAYS = ("offsets", "unit_w", "_deriv", "_basis")


def test_grids_of_one_order_share_a_read_only_rule():
    a, b = PanelGrid(-12, 12, per_unit=16), PanelGrid(-3, 5, per_unit=16)
    for name in RULE_ARRAYS:
        assert getattr(a, name) is getattr(b, name), name
    for arr in (*_unit_rule(16), *(getattr(a, name) for name in RULE_ARRAYS)):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    other = PanelGrid(-12, 12, per_unit=24)
    for name in RULE_ARRAYS:
        assert getattr(other, name) is not getattr(a, name), name
    assert other._basis.shape == (24, 24, 24) and other._basis.dtype == complex


def test_rule_cache_is_bounded():
    limit = _unit_rule.cache_info().maxsize
    assert isinstance(limit, int)
    for order in range(1, limit + 6):
        PanelGrid(-2, 2, per_unit=order)
    assert _unit_rule.cache_info().currsize <= limit
    # an evicted order is rebuilt with the same values
    grid = PanelGrid(-20, 20, per_unit=16)
    vals = 1.0 / np.cosh(0.75 * grid.z) ** 2
    assert abs(grid.integral(vals) - 2.0 / 0.75 * np.tanh(15.0)) < 1e-12


def test_lowest_order_rule():
    grid = PanelGrid(-4, 4, per_unit=1)
    assert grid.z.size == 8 and abs(grid.integral(np.ones(8)) - 8.0) < 1e-15
    assert np.all(grid.derivative(np.ones(8)) == 0.0)


@pytest.mark.parametrize("q", [0.7, 0.7 + 0.2j, -0.7, 0.4j])
def test_weighted_cumulative_matches_closed_form(q):
    a = -0.3
    grid = PanelGrid(-12, 12, per_unit=16)
    g = np.exp(a * grid.z)
    left = exp_cumulative(grid, g, q, "left")
    expect_l = (np.exp(a * grid.z) - np.exp((q + a) * grid.lo - q * grid.z)) / (q + a)
    assert np.max(np.abs(left - expect_l)) < 1e-12 * np.max(np.abs(expect_l))
    right = exp_cumulative(grid, g, -q, "right")
    expect_r = (np.exp((a - q) * grid.hi + q * grid.z) - np.exp(a * grid.z)) / (a - q)
    assert np.max(np.abs(right - expect_r)) < 1e-12 * np.max(np.abs(expect_r))


def test_based_cumulative_matches_closed_form():
    a, q = -0.3, 0.6 + 0.1j
    grid = PanelGrid(-12, 12, per_unit=16)
    g = np.exp(a * grid.z)
    got = based_cumulative(grid, g, q)
    expected = (np.exp(a * grid.z) - np.exp(-q * grid.z)) / (q + a)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_based_cumulative_needs_edge_base():
    grid = PanelGrid(1, 5)  # the origin is not a panel edge
    with pytest.raises(ConfigMismatch):
        based_cumulative(grid, np.zeros_like(grid.z), 0.5)


def test_mis_sized_samples_rejected():
    grid = PanelGrid(-4, 4, per_unit=8)
    short = np.ones(grid.z.size - 1)
    for apply in (grid.derivative, grid.antiderivative, grid.integral,
                  lambda v: exp_cumulative(grid, v, 0.5, "left")):
        with pytest.raises(ConfigMismatch):
            apply(short)


def test_cumulative_side_validated():
    grid = PanelGrid(-4, 4)
    with pytest.raises(ConfigMismatch):
        exp_cumulative(grid, np.zeros_like(grid.z), 0.5, "middle")


def test_overflowing_weight_rejected():
    grid = PanelGrid(-60, 60, per_unit=4)
    with pytest.raises(RegionViolation):
        exp_cumulative(grid, np.ones_like(grid.z), 6.0, "left")


@pytest.mark.parametrize("q", [np.nan, complex(0.5, np.nan), np.inf, -np.inf])
def test_non_finite_weight_rejected(q):
    grid = PanelGrid(-4, 4, per_unit=8)
    for side in ("left", "right"):
        with pytest.raises(RegionViolation):
            exp_cumulative(grid, np.ones_like(grid.z), q, side)


# ----- the per-rate sweep kernel -----


def _scalar_loop_sweep(grid, g, q):
    """The left sweep with every array built per call and a numpy scalar carry."""
    off, w = grid.offsets, grid.unit_w
    totals = g @ (w * np.exp(q * (off - 1.0)))
    edge_acc = np.empty(grid.npan, dtype=complex)
    acc = 0j
    step = np.exp(-q)
    for k in range(grid.npan):
        edge_acc[k] = acc
        acc = acc * step + totals[k]
    carried = edge_acc[:, None] * np.exp(-q * off)[None, :]
    kernel = off[:, None] * w[None, :] * np.exp(q * off[:, None] * (off[None, :] - 1.0))
    local = np.matmul(kernel[:, None, :], grid._basis)[:, 0, :]
    return carried + g @ local.T


@pytest.mark.parametrize("npan", [2, 3, 102, 320])
@pytest.mark.parametrize("q", [0.0, 0.7, -0.7, 0.7 + 0.2j, 0.4j, "edge", "-edge"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_cached_sweep_equals_the_scalar_loop(npan, q, side):
    grid = PanelGrid(-(npan // 2), npan - npan // 2)
    if isinstance(q, str):  # the largest rate the window admits
        q = (-1.0 if q.startswith("-") else 1.0) * 640.0 / npan
    rng = np.random.default_rng(npan)
    vals = rng.standard_normal(grid.z.size) + 1j * rng.standard_normal(grid.z.size)
    got = exp_cumulative(grid, vals, q, side)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanhexp, "_left_sweep", _scalar_loop_sweep)
        want = exp_cumulative(grid, vals, q, side)
    assert np.all(np.isfinite(want))
    assert np.array_equal(got, want)


def _kernel_bytes(kern) -> list[bytes]:
    """The bytes of a sweep kernel's arrays and of its step."""
    return [arr.tobytes() for arr in kern[:3]] + [np.complex128(kern[3]).tobytes()]


def test_sweep_kernel_cache_is_bounded_and_read_only():
    limit = _sweep_kernel.cache_info().maxsize
    assert isinstance(limit, int)
    first = _kernel_bytes(_sweep_kernel(0.3 + 0.1j, 16))
    for k in range(limit + 5):
        kern = _sweep_kernel(0.01 * (k + 1), 16)
        assert type(kern[3]) is complex  # the step: immutable, and carried in Python complex
        for arr in kern[:3]:
            with pytest.raises(ValueError):
                arr[...] = 0.0
    assert _sweep_kernel.cache_info().currsize <= limit
    misses = _sweep_kernel.cache_info().misses
    # the evicted rate is rebuilt with the same bytes
    assert _kernel_bytes(_sweep_kernel(0.3 + 0.1j, 16)) == first
    assert _sweep_kernel.cache_info().misses == misses + 1


def test_sweep_kernel_step_is_one_panel_of_decay():
    q = 0.3 + 0.1j
    assert _sweep_kernel(q, 16)[3] == complex(np.exp(-q))


def test_grid_records_whether_the_origin_is_an_edge():
    assert PanelGrid(-4, 4, per_unit=8).has_origin
    assert PanelGrid(0, 3, per_unit=8).has_origin
    assert PanelGrid(-3, 0, per_unit=8).has_origin
    assert not PanelGrid(1, 5, per_unit=8).has_origin
    assert not PanelGrid(-5, -2, per_unit=8).has_origin


def test_grid_arrays_are_read_only():
    grid = PanelGrid(-4, 4, per_unit=8)
    for arr in (grid.edges, grid.z, grid.w):
        with pytest.raises(ValueError):
            arr[...] = 0.0


# ----- sweeps over only the panels they read -----


def _samples(grid, seed):
    """Random samples of one sign and a little phase, like the channel
    integrands, so that the cumulatives do not cancel far below the size of
    their terms."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, grid.z.size) * np.exp(0.5j * rng.random(grid.z.size))


def _masked_based(grid, vals, q):
    """based_cumulative as two whole-window sweeps, each of the samples with
    the other side of the origin set to zero."""
    above = grid.z >= 0.0
    upper = exp_cumulative(grid, np.where(above, vals, 0.0), q, "left")
    lower = exp_cumulative(grid, np.where(above, 0.0, vals), q, "right")
    return np.where(above, upper, -lower)


def _masked_edge_piece(grid, vals, q):
    """The low plus inverse's piece as two whole-window sweeps: the left
    integral below the origin, minus the right one above it."""
    left = exp_cumulative(grid, vals, q, "left")
    grown = exp_cumulative(grid, vals, q, "right")
    return np.where(grid.z < 0.0, left, -grown)


def _assert_close(got, want):
    """Within 4 eps of want's peak.  The half sweeps keep the bytes of the
    whole-window ones only where the BLAS kernel computes a row of a block
    alike whatever the block's size; OpenBLAS's Haswell kernel moves some
    rows by a few 1e-16 of the peak."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


RATES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0),
                  st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))


@settings(max_examples=80, deadline=None)
@given(lo=st.integers(-6, 0), hi=st.integers(0, 6),
       per_unit=st.sampled_from([1, 2, 5, 16, 32]), q=RATES, seed=st.integers(0, 2**32 - 1))
# one-panel sides, swept beside a zero panel
@example(lo=-1, hi=5, per_unit=32, q=0.7, seed=1)
@example(lo=-5, hi=1, per_unit=32, q=0.3 - 1.2j, seed=2)
@example(lo=-1, hi=1, per_unit=5, q=0.0, seed=3)
def test_based_cumulative_matches_the_masked_window(lo, hi, per_unit, q, seed):
    assume(hi - lo >= 2)
    grid = PanelGrid(lo, hi, per_unit)
    vals = _samples(grid, seed)
    _assert_close(based_cumulative(grid, vals, q), _masked_based(grid, vals, q))


@settings(max_examples=80, deadline=None)
@given(lo=st.integers(-6, -1), hi=st.integers(1, 6),
       per_unit=st.sampled_from([1, 2, 5, 16, 32]), q=RATES, seed=st.integers(0, 2**32 - 1))
@example(lo=-1, hi=5, per_unit=32, q=0.7, seed=1)
@example(lo=-5, hi=1, per_unit=32, q=-0.0, seed=2)
def test_edge_runs_match_the_masked_window(lo, hi, per_unit, q, seed):
    """The low plus piece from runs of panels at the window edges: the left
    integral over the panels below the origin, the right one over those
    above it."""
    grid = PanelGrid(lo, hi, per_unit)
    vals = _samples(grid, seed)
    cut = -lo * per_unit
    got = np.concatenate((exp_cumulative(grid, vals[:cut], q, "left"),
                          -exp_cumulative(grid, vals[cut:], q, "right")))
    _assert_close(got, _masked_edge_piece(grid, vals, q))


@pytest.mark.parametrize("lo, hi, swept", [
    (-4, 6, [4, 6]), (-1, 5, [2, 5]), (-5, 1, [5, 2]), (-1, 1, [2, 2]), (0, 4, [4]),
    (-3, 0, [3]),
])
def test_based_cumulative_sweeps_each_side_once(monkeypatch, lo, hi, swept):
    """Below the origin, then above it; a lone panel with one zero panel, and
    the side below as a mirrored view of the samples."""
    grid = PanelGrid(lo, hi, per_unit=8)
    blocks = []
    sweep = tanhexp._left_sweep

    def spy(grid, g, q):
        blocks.append(g)
        return sweep(grid, g, q)

    monkeypatch.setattr(tanhexp, "_left_sweep", spy)
    based_cumulative(grid, _samples(grid, 0), 0.5)
    assert [len(g) for g in blocks] == swept
    if lo < 0:
        assert blocks[0].strides[0] < 0 and blocks[0].strides[1] < 0
    if hi > 0:
        assert blocks[-1].strides[0] > 0 and blocks[-1].strides[1] > 0


def test_cumulative_of_a_panel_run():
    grid = PanelGrid(-4, 4, per_unit=8)
    vals = _samples(grid, 4)
    whole = exp_cumulative(grid, vals, 0.6, "left")
    assert exp_cumulative(grid, vals[:24], 0.6, "left").shape == (24,)
    _assert_close(exp_cumulative(grid, vals[:24], 0.6, "left"), whole[:24])
    for bad in (vals[:0], vals[:20], np.concatenate((vals, vals[:8]))):
        with pytest.raises(ConfigMismatch):
            exp_cumulative(grid, bad, 0.6, "left")
    with pytest.raises(ConfigMismatch):  # based integrals read the whole window
        based_cumulative(grid, vals[:24], 0.6)


@pytest.mark.parametrize("step", [complex(1.0, 0.0), complex(1.0, -0.0)])
def test_rate_zero_carry_is_the_sequential_loop_byte_for_byte(step):
    rng = np.random.default_rng(9)
    n = 600
    parts = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-150, 150, (2, n))
    zeros = rng.integers(0, 6, (2, n))  # a quarter of the parts a signed zero
    parts[zeros == 0] = 0.0
    parts[zeros == 1] = -0.0
    parts[:, :4] = -0.0  # the first totals -0, as the carry starts from +0
    totals = np.empty(n, dtype=complex)
    totals.real, totals.imag = parts
    assert np.signbit(totals.real).sum() > n // 4 and np.signbit(totals.imag).sum() > n // 4
    acc, want = 0j, []
    for t in totals.tolist():
        want.append(acc)
        acc = acc * step + t
    got = _edge_carry(totals, 0j, step)
    assert got.tobytes() == np.array(want).tobytes()
    assert _sweep_kernel(0.0, 8)[3] in (complex(1.0, 0.0), complex(1.0, -0.0))
