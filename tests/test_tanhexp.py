"""Closed hyperbolic-exponential algebra and the weighted panel calculus."""
from __future__ import annotations

import numpy as np
import pytest

from kplab.errors import ConfigMismatch, RegionViolation
from kplab.expsum import ExpSum
from kplab.tanhexp import PanelGrid, TanhExp, based_cumulative, exp_cumulative

ZS = np.linspace(-7.0, 7.0, 57)


# ----- term algebra -----


def test_tanh_square_reduces_to_sech():
    f = TanhExp.tanh(0.8) * TanhExp.tanh(0.8)
    expected = 1.0 - 1.0 / np.cosh(0.8 * ZS) ** 2
    assert np.max(np.abs(f.eval(ZS) - expected)) < 1e-14


def test_negative_sech_power_is_cosh():
    f = TanhExp.sech(0.6, power=-1)
    assert np.max(np.abs(f.eval(ZS) - np.cosh(0.6 * ZS))) < 1e-12 * np.max(np.cosh(0.6 * ZS))


def test_derivative_matches_difference_quotient():
    f = (TanhExp.term(0.7, 1.3, 2, 1, 0.2 + 0.4j)
         + TanhExp.term(0.7, 0.6, mu=-0.5)
         + TanhExp.sech(0.7, 3, coef=-0.8))
    h = 1e-6
    numeric = (f.eval(ZS + h) - f.eval(ZS - h)) / (2.0 * h)
    exact = f.d().eval(ZS)
    assert np.max(np.abs(exact - numeric)) < 1e-7 * np.max(np.abs(exact))


def test_rate_mismatch_rejected():
    with pytest.raises(ConfigMismatch):
        TanhExp.tanh(0.5) + TanhExp.tanh(0.6)


@pytest.mark.parametrize("combine", [
    lambda f: f + None,
    lambda f: f * "a",
    lambda f: f + ExpSum.constant(1.0),
    lambda f: ExpSum.constant(1.0) * f,
], ids=["plus_none", "times_str", "plus_expsum", "expsum_times"])
def test_foreign_operand_is_a_type_error(combine):
    with pytest.raises(TypeError):
        combine(TanhExp.tanh(0.5))


def test_far_field_evaluation_is_stable():
    f = TanhExp.term(0.75, 2.0, 1, 2, -0.1)
    far = f.eval(np.array([-420.0, 420.0]))
    assert np.all(np.isfinite(far))
    assert abs(far[1]) < 1e-200


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
    got = based_cumulative(grid, g, q, base=0.0)
    expected = (np.exp(a * grid.z) - np.exp(-q * grid.z)) / (q + a)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_based_cumulative_needs_edge_base():
    grid = PanelGrid(-4, 4)
    with pytest.raises(ConfigMismatch):
        based_cumulative(grid, np.zeros_like(grid.z), 0.5, base=0.25)


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
