"""Wave families: annihilation, residues, completeness, products, kernels."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kplab.errors import PoleAtKappa
from kplab.expsum import worst_residual
from kplab.jost import (JostFamily, flow_parts, green_kernel_checks, heat_parts,
                        product_residuals)
from kplab.solitons import SolitonConfig, potential, potential_yprim, theta_eval

KP = (-2.0, -1.0, 0.5, 3.0)
KO = (-2.0, -1.0, 1.0, 2.0)


def families():
    return {
        "p": JostFamily(SolitonConfig("p_type", KP)),
        "o": JostFamily(SolitonConfig("o_type", KO)),
        "one": JostFamily(SolitonConfig("one_line", (-1.0, 1.0), pair=(1, 2))),
        "narrow": JostFamily(SolitonConfig("one_line", (-0.5, 2.5), pair=(1, 2))),
        "flat": JostFamily(SolitonConfig("vacuum", ())),
    }


def sample_points(seed=0, n=24, lo=-2.5, hi=2.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, (3, n))


# ----- wave structure -----


def test_wave_is_shifted_tau_quotient():
    """wave * tau = plane wave times the slope-shifted minor expansion."""
    fam = families()["one"]
    k = 0.37
    x, y, t = sample_points(1)
    kap = (-1.0, 1.0)
    th1 = theta_eval(kap, 1, x, y, t)
    th2 = theta_eval(kap, 2, x, y, t)
    w = 1j * k
    plane = np.exp(w * x + w * w * y - w ** 3 * t)
    expected = plane * ((w - kap[0]) * np.exp(th1) + (w - kap[1]) * np.exp(th2))
    got = fam.phi(beta=1j * k).eval(x, y, t) * fam.tau.eval(x, y, t)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_dual_wave_inverts_slope_factors():
    fam = families()["one"]
    k = 0.37
    x, y, t = sample_points(2)
    kap = (-1.0, 1.0)
    th1 = theta_eval(kap, 1, x, y, t)
    th2 = theta_eval(kap, 2, x, y, t)
    w = 1j * k
    plane = np.exp(-(w * x + w * w * y - w ** 3 * t))
    expected = plane * (np.exp(th1) / (w - kap[0]) + np.exp(th2) / (w - kap[1]))
    got = fam.phi_star(beta=1j * k).eval(x, y, t) * fam.tau.eval(x, y, t)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_dual_wave_pole_at_phase_slope():
    fam = families()["one"]
    with pytest.raises(PoleAtKappa):
        fam.phi_star(beta=1.0)


@pytest.mark.parametrize("j", [0, 5])
def test_residue_index_is_checked(j):
    fam = families()["p"]
    for residue in (fam.phi_residue, fam.phi_star_residue):
        with pytest.raises(PoleAtKappa):
            residue(j)


def test_family_keeps_its_waves():
    fam = families()["p"]
    for build, arg in ((fam.phi, 1.7), (fam.phi_star, 0.3 + 0.4j),
                       (fam.phi_residue, 2), (fam.phi_star_residue, 3)):
        assert build(arg) is build(arg)


# ----- annihilation by the compatibility operators -----

INSTANCES = [
    ("p", dict(beta=0.37j)),
    ("p", dict(beta=1.9)),
    ("p", dict(beta=-0.8 + 0.6j)),
    ("o", dict(beta=0.2j)),
    ("o", dict(beta=-1.5)),
    ("o", dict(beta=0.9 + 0.3j)),
    ("one", dict(beta=0.5j)),
    ("one", dict(beta=0.3)),
    ("one", dict(beta=1.4 - 0.7j)),
    ("narrow", dict(beta=1.0 + 0.2j)),
    ("flat", dict(beta=0.11j)),
    ("flat", dict(beta=0.77)),
]


@pytest.mark.parametrize("name,kw", INSTANCES)
def test_operators_annihilate_waves(name, kw):
    fam = families()[name]
    x, y, t = sample_points(3)
    wave = fam.phi(**kw)
    dual = fam.phi_star(**kw)
    u, uy = potential(fam.tau), potential_yprim(fam.tau)
    for kind, parts in (("L", heat_parts(u, wave, False)), ("B", flow_parts(u, uy, wave, False)),
                        ("Lstar", heat_parts(u, dual, True)),
                        ("Bstar", flow_parts(u, uy, dual, True))):
        assert worst_residual(parts, x, y, t) < 1e-9, (name, kw, kind)


# ----- discrete waves and completeness -----


def test_discrete_wave_pairings():
    """Crossing-channel family: waves at the phase slopes pair up."""
    fam = families()["p"]
    x, y, t = sample_points(4, n=12)
    pr = {j: fam.phi_residue(j).eval(x, y, t) for j in (1, 2, 3, 4)}
    ps = {j: fam.phi_star_residue(j).eval(x, y, t) for j in (1, 2, 3, 4)}
    scale = max(np.max(np.abs(pr[j])) for j in pr)
    assert np.max(np.abs(pr[1] - pr[4])) < 1e-12 * scale
    assert np.max(np.abs(pr[2] + pr[3])) < 1e-12 * scale
    dscale = max(np.max(np.abs(ps[j])) for j in ps)
    assert np.max(np.abs(ps[1] + ps[4])) < 1e-12 * dscale
    assert np.max(np.abs(ps[2] - ps[3])) < 1e-12 * dscale


def test_discrete_dual_closed_forms():
    """Dual residues reduce to single minor combinations over tau."""
    fam = families()["p"]
    x, y, t = sample_points(5, n=12)
    tau = fam.tau.eval(x, y, t)
    th = {m: theta_eval(KP, m, x, y, t) for m in (1, 2, 3, 4)}
    f1 = np.exp(th[2]) + np.exp(th[3])
    f2 = np.exp(th[4]) - np.exp(th[1])
    pairs = [(1, -f1), (4, f1), (2, -f2), (3, -f2)]
    for j, num in pairs:
        got = fam.phi_star_residue(j).eval(x, y, t)
        expected = num / tau
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected)), j


def test_one_line_dual_residue_is_inverse_tau():
    fam = families()["one"]
    x, y, t = sample_points(6, n=12)
    tau = fam.tau.eval(x, y, t)
    for j in (1, 2):
        got = fam.phi_star_residue(j).eval(x, y, t)
        assert np.max(np.abs(got * tau - 1.0)) < 1e-12


@pytest.mark.parametrize("name", ["p", "o", "one"])
def test_completeness_at_independent_points(name):
    fam = families()[name]
    rng = np.random.default_rng(7)
    x, y, t = rng.uniform(-2.0, 2.0, (3, 20))
    xp, yp, tp = rng.uniform(-2.0, 2.0, (3, 20))
    total, scale = fam.completeness_sum(x, y, t, xp, yp, tp)
    assert np.max(total / scale) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4, unique=True),
       st.sampled_from(["p_type", "o_type"]),
       st.integers(0, 2 ** 31 - 1))
def test_residues_over_kappa(raw, kind, seed):
    """Near each phase the scaled dual tends to its residue linearly, and the
    residues pair to completeness, for any admissible phase speeds."""
    kappa = tuple(sorted(raw))
    assume(min(b - a for a, b in zip(kappa, kappa[1:])) >= 0.1)
    fam = JostFamily(SolitonConfig(kind, kappa))
    x, y, t = sample_points(seed, n=8, lo=-1.5, hi=1.5)
    for j, kj in enumerate(kappa, start=1):
        res = fam.phi_star_residue(j).eval(x, y, t)

        def gap(eps):
            return np.max(np.abs(eps * fam.phi_star(beta=kj + eps).eval(x, y, t) - res))

        # a gap that halves with eps closes linearly onto the residue
        coarse, fine = gap(1e-5), gap(5e-6)
        assert abs(fine / coarse - 0.5) < 0.01, (kind, kappa, j, coarse, fine)
    xp, yp, tp = sample_points(seed + 1, n=8, lo=-1.5, hi=1.5)
    total, scale = fam.completeness_sum(x, y, t, xp, yp, tp)
    assert np.max(total / scale) < 1e-10, (kind, kappa)


# ----- product solution maps -----


@pytest.mark.parametrize("name,kw", [
    ("p", dict(beta=0.43j)),
    ("p", dict(beta=0.9 + 0.4j)),
    ("o", dict(beta=0.31j)),
    ("one", dict(beta=1.6)),
])
def test_wave_product_solution_maps(name, kw):
    fam = families()[name]
    x, y, t = sample_points(8, n=16, lo=-2.0, hi=2.0)
    out = product_residuals(fam, kw["beta"], x, y, t)
    assert out["primitive"] < 1e-9
    assert out["product"] < 1e-9
    assert out["derivative"] < 1e-9


# ----- resolvent kernels -----


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("eta", [0.35, 1.2])
def test_green_kernel_checks(level, eta):
    out = green_kernel_checks(KP, level, eta, seed=3)
    for key, val in out.items():
        assert val < 1e-11, (level, eta, key, val)


@pytest.mark.parametrize("eta", [0.35, 1.2])
def test_completeness_reported_only_where_computed(eta):
    # the vacuum has no discrete phases, so level 0 has nothing to pair
    assert "completeness" not in green_kernel_checks(KP, 0, eta, seed=3)
    assert green_kernel_checks(KP, 1, eta, seed=3)["completeness"] < 1e-11


def test_green_kernel_level_is_validated():
    with pytest.raises(ValueError):
        green_kernel_checks(KP, 2, 0.3)
