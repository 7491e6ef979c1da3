"""Wave families: annihilation, residues, completeness, products, kernels.

`kplab.jost` states the product maps as part lists (`product_parts`); the
completeness sum and the two-point resolvent kernel checks are built here
from the waves and residues of `JostFamily`, on sample points drawn here.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kplab.branches import branch_of
from kplab.errors import ConfigMismatch, PoleAtKappa
from kplab.expsum import sum_residual, worst_residual
from kplab.jost import JostFamily, flow_parts, heat_parts, product_parts
from kplab.solitons import SolitonConfig, potential, potential_yprim

from closed_forms import theta

KP = (-2.0, -1.0, 0.5, 3.0)
KO = (-2.0, -1.0, 1.0, 2.0)


def families():
    return {
        "p": JostFamily(SolitonConfig("p_type", KP)),
        "o": JostFamily(SolitonConfig("o_type", KO)),
        "one": JostFamily(SolitonConfig("one_line", (-1.0, 1.0), pair=(1, 2))),
        "narrow": JostFamily(SolitonConfig("one_line", (-0.5, 2.5), pair=(1, 2))),
        "flat": JostFamily(SolitonConfig("vacuum", ())),
        "line23": JostFamily(SolitonConfig("one_line", KP, pair=(2, 3))),
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
    th1 = theta(kap, 1, x, y, t)
    th2 = theta(kap, 2, x, y, t)
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
    th1 = theta(kap, 1, x, y, t)
    th2 = theta(kap, 2, x, y, t)
    w = 1j * k
    plane = np.exp(-(w * x + w * w * y - w ** 3 * t))
    expected = plane * (np.exp(th1) / (w - kap[0]) + np.exp(th2) / (w - kap[1]))
    got = fam.phi_star(beta=1j * k).eval(x, y, t) * fam.tau.eval(x, y, t)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def test_dual_wave_pole_at_phase_slope():
    # within 1e-9 of kappa = 1 the dual raises rather than return ~1e11;
    # the wave has no pole there
    fam = families()["one"]
    for beta in (1.0, 1.0 + 1e-12, 1.0 - 5e-10j):
        with pytest.raises(PoleAtKappa):
            fam.phi_star(beta=beta)
        assert np.all(np.isfinite(fam.phi(beta=beta).eval(*sample_points(1))))


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
    # a non-finite point raises each time and is never kept
    kept = len(fam._waves)
    for build, arg in ((fam.phi, np.nan), (fam.phi, np.nan), (fam.phi_star, np.inf),
                       (fam.phi_star, complex(1.0, np.nan))):
        with pytest.raises(ConfigMismatch):
            build(arg)
    assert len(fam._waves) == kept


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

# The branch-point waves of the resolvent kernels, held to 1e-11: the (2, 3)
# channel over the vacuum and the (1, 4) channel over the (2, 3) line.
BRANCH_INSTANCES = [
    (name, dict(beta=branch_of(SolitonConfig("p_type", KP), pair).beta(eta, side)))
    for name, pair in (("flat", (2, 3)), ("line23", (1, 4)))
    for eta in (0.35, 1.2) for side in (1, -1)]


@pytest.mark.parametrize("name,kw", INSTANCES + BRANCH_INSTANCES)
def test_operators_annihilate_waves(name, kw):
    fam = families()[name]
    x, y, t = sample_points(3)
    wave = fam.phi(**kw)
    dual = fam.phi_star(**kw)
    u, uy = potential(fam.tau), potential_yprim(fam.tau)
    for kind, parts in (("L", heat_parts(u, wave, False)), ("B", flow_parts(u, uy, wave, False)),
                        ("Lstar", heat_parts(u, dual, True)),
                        ("Bstar", flow_parts(u, uy, dual, True))):
        bound = 1e-11 if (name, kw) in BRANCH_INSTANCES else 1e-9
        assert worst_residual(parts, x, y, t) < bound, (name, kw, kind)


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
    th = {m: theta(KP, m, x, y, t) for m in (1, 2, 3, 4)}
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


def completeness(fam, pts, primed) -> float:
    """Worst ratio of the sum over phases of wave(pts) times dual residue(primed)."""
    total, scale = sum_residual(
        fam.phi_residue(j).eval(*pts) * fam.phi_star_residue(j).eval(*primed)
        for j in range(1, fam.config.m_phases + 1))
    return float(np.max(total / scale))


@pytest.mark.parametrize("name,bound", [("p", 1e-10), ("o", 1e-10), ("one", 1e-10),
                                        ("line23", 1e-11)], ids=["p", "o", "one", "line23"])
def test_completeness_at_independent_points(name, bound):
    rng = np.random.default_rng(7)
    pts, primed = rng.uniform(-2.0, 2.0, (2, 3, 20))
    assert completeness(families()[name], pts, primed) < bound


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
    primed = sample_points(seed + 1, n=8, lo=-1.5, hi=1.5)
    assert completeness(fam, (x, y, t), primed) < 1e-10, (kind, kappa)


# ----- product solution maps -----


@pytest.mark.parametrize("name,kw", [
    ("p", dict(beta=0.43j)),
    ("p", dict(beta=0.9 + 0.4j)),
    ("o", dict(beta=0.31j)),
    ("one", dict(beta=1.6)),
])
def test_wave_product_solution_maps(name, kw):
    parts = product_parts(families()[name], kw["beta"])
    assert set(parts) == {"primitive", "product", "derivative"}
    x, y, t = sample_points(8, n=16, lo=-2.0, hi=2.0)
    for key, identity in parts.items():
        assert worst_residual(identity, x, y, t) < 1e-9, (name, kw, key)
        # one part scaled by 1 + 1e-7 reads near 1e-7: the scale cannot swamp the parts
        mutated = [(1.0 + 1e-7) * identity[0]] + identity[1:]
        assert 1e-8 < worst_residual(mutated, x, y, t) < 1e-6, (name, kw, key)


# ----- resolvent kernels -----


def resolvent_errors(level: int, eta: float) -> dict[str, float]:
    """Worst relative errors of the two-sided resolvent kernels at t = 0,
    on 24 two-point samples of seed 3.

    level 0 pairs the vacuum with the (2, 3) channel of KP, level 1 the
    (2, 3) line with the (1, 4) channel, whose branch-wave products carry
    corrections from the residues at phases 2 and 3.

    split           the side-selected wave product equals the smooth
                    component times one plus the residue corrections
    continuity      the component agrees across the sloped diagonal when
                    reconstructed separately from each branch product
    jump            d/dx of the component jumps by exp((i eta - k_i k_j)(y-y'))
    weighted_match  the residue-weighted d/dx ratios match across sides
    """
    fam, corr_js, pair = ((families()["flat"], (), (2, 3)) if level == 0
                          else (families()["line23"], (2, 3), (1, 4)))
    br = branch_of(SolitonConfig("p_type", KP), pair)
    gam, beta = br.gamma(eta), {s: br.beta(eta, s) for s in (1, -1)}
    npts = 24
    rng = np.random.default_rng(3)
    rng.random(3 * npts)  # skipped, so the points stay those the bounds were set on
    yy, yyp = rng.uniform(-1.5, 1.5, (2, npts))
    zz, zzp, zd = rng.uniform(-2.5, 2.5, (3, npts))
    t0 = np.zeros(npts)

    def corr(s, x, y, xp, yp):
        """Residue correction sum and its x-derivative."""
        tot = totx = 0.0
        for j in corr_js:
            kv, pj = KP[j - 1], fam.phi_residue(j)
            phase = theta(KP, j, xp, yp, 0.0) - theta(KP, j, x, y, 0.0)
            weight = np.exp(phase) * fam.phi_star_residue(j).eval(xp, yp, t0) / (beta[s] - kv)
            val = pj.eval(x, y, t0)
            tot = tot + weight * val
            totx = totx + weight * (pj.dx().eval(x, y, t0) - kv * val)
        return tot, totx

    def product(s, x, y, xp, yp, deriv=False):
        w = fam.phi(beta[s])
        lhs = (w.dx() if deriv else w).eval(x, y, t0)
        return -lhs * fam.phi_star(beta[s]).eval(xp, yp, t0) / (2.0 * gam)

    # off the diagonal: side-selected product vs component times corrections
    x, xp = zz - 2.0 * br.a * yy, zzp - 2.0 * br.a * yyp
    pref = sum(theta(KP, j, x, yy, 0.0) - theta(KP, j, xp, yyp, 0.0) for j in pair)
    comp = -np.exp(0.5 * pref - gam * np.abs(zz - zzp) + 1j * eta * (yy - yyp)) / (2.0 * gam)
    below = zz > zzp
    direct = np.where(below, product(-1, x, yy, xp, yyp), product(1, x, yy, xp, yyp))
    expected = comp * (1.0 + np.where(below, corr(-1, x, yy, xp, yyp)[0],
                                      corr(1, x, yy, xp, yyp)[0]))
    # one side against its closed form, which is stricter than max-part
    out = {"split": float(np.max(np.abs(direct - expected) / np.abs(expected)))}

    # on the diagonal: component reconstructed from each branch product
    xd, xdp = zd - 2.0 * br.a * yy, zd - 2.0 * br.a * yyp

    def reconstruct(s):
        d, dx = (product(s, xd, yy, xdp, yyp, deriv=deriv) for deriv in (False, True))
        cv, cx = corr(s, xd, yy, xdp, yyp)
        return d / (1.0 + cv), (dx * (1.0 + cv) - d * cx) / (1.0 + cv) ** 2

    (gm, gmx), (gp, gpx) = reconstruct(-1), reconstruct(1)
    res, scale = sum_residual([gm, -gp])
    out["continuity"] = float(np.max(res / scale))
    jump = np.exp((1j * eta - KP[pair[0] - 1] * KP[pair[1] - 1]) * (yy - yyp))
    # against the closed-form jump, which is stricter than max-part
    out["jump"] = float(np.max(np.abs((gmx - gpx) - jump) / np.abs(jump)))
    wm = []
    for j in corr_js or pair:
        kv = KP[j - 1]
        res, scale = sum_residual([(gmx - kv * gm) / (beta[-1] - kv),
                                   -((gpx - kv * gp) / (beta[1] - kv))])
        wm.append(np.max(res / scale))
    out["weighted_match"] = float(np.max(wm))
    return out


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("eta", [0.35, 1.2])
def test_green_kernel_checks(level, eta):
    for key, val in resolvent_errors(level, eta).items():
        assert val < 1e-11, (level, eta, key, val)
