"""Level transforms: couplings, routes, product maps, and line inverses."""
from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kplab.darboux import (
    REPORT_BETA,
    REPORT_BETA_PRIME,
    REPORT_ETA,
    REPORT_KAPPA_O,
    REPORT_KAPPA_P,
    MiuraData,
    OneDimDarboux,
    _level_steps,
    _hyperbolic,
    _profile_nodes,
    _window_grid,
    _tail,
    backlund_catalog,
    backlund_parts,
    bump_profile,
    carried_from_primitive,
    commutation_parts,
    darboux_map_parts,
    factorization_parts,
    flow_intertwining_parts,
    identity_report,
    kink_profile,
    level_shift_parts,
    minus_kernel_profile,
    miura_lax_parts,
    mode_transfer_parts,
    sample_points,
    t1_apply,
    t1_roundtrip,
    transform_parts,
)
from kplab import expsum, solitons, tanhexp
from kplab.branches import Branch
from kplab.errors import (
    AlphaOutOfRange,
    CaseMismatch,
    ConfigMismatch,
    InadmissibleEta,
    InvalidBranch,
    KplabError,
    MissingPrimitive,
    OrthogonalityViolation,
    PoleAtKappa,
    RegionViolation,
)
from kplab.expsum import Carried, ExpSum, Rational, sum_residual, worst_residual
from kplab.jost import JostFamily, pair_product
from kplab.solitons import SolitonConfig, theta_gens, wronskian_tau
from kplab.tanhexp import PanelGrid

from closed_forms import sech2, theta

KP = (-2.0, -1.0, 0.5, 3.0)
KO = (-2.0, -1.0, 1.0, 2.0)
K3 = (-1.0, 0.3, 2.0)
CP = 0.5625  # quarter squared gap of the inner channel of KP
ZS = np.linspace(-9.0, 9.0, 121)
KERNEL_ZS = np.linspace(-8.0, 8.0, 97)


def pts(seed=0, n=12):
    return sample_points(seed=seed, n=n)


def worst(family, *points):
    return {name: worst_residual(parts, *points) for name, parts in family.items()}


def p_chain():
    fam1 = JostFamily(SolitonConfig("one_line", KP, pair=(2, 3)))
    fam2 = JostFamily(SolitonConfig("p_type", KP))
    return fam1, fam2


# ----- bilinear pair coupling -----


def test_catalog_pairs_satisfy_both_couplings():
    x, y, t = pts(1)
    for name, tau1, tau2 in backlund_catalog():
        res = worst(backlund_parts(tau1, tau2), x, y, t)
        assert res["x"] < 1e-9 and res["t"] < 1e-9, f"{name}: {res}"


def test_elementary_pair_is_machine_exact():
    x, y, t = pts(2)
    cat = {name: (t1, t2) for name, t1, t2 in backlund_catalog()}
    res = worst(backlund_parts(*cat["line_over_vacuum"]), x, y, t)
    assert res["x"] < 1e-12 and res["t"] < 1e-12


def phase_sum(kappa, coeffs) -> ExpSum:
    """Reference sum of coeffs[m] exp(theta_m), built term by term."""
    units = np.eye(len(kappa), dtype=int)
    return ExpSum(theta_gens(kappa), {tuple(units[m]): complex(c)
                                      for m, c in enumerate(coeffs) if c})


def explicit_wronskian(kappa, coeffs_a, coeffs_b) -> ExpSum:
    """Reference Wronskian f_a f_b' - f_b f_a' of two phase sums."""
    fa, fb = phase_sum(kappa, coeffs_a), phase_sum(kappa, coeffs_b)
    return fa * fb.dx() - fb * fa.dx()


def exact_terms(tau: ExpSum):
    return tau.gens, [(key, c.real.hex(), c.imag.hex()) for key, c in tau.terms.items()]


# Each catalog tau built on one Wronskian entry, by the coefficients of that entry.
ONE_COLUMN = {
    ("three_term_over_vacuum", 2): (K3, (1.0, 0.7, 1.3)),
    ("full_rank_pair", 1): (KP, (0.0, 1.0, 0.7, 1.3)),
    ("rank_pair_degenerate", 1): (KP, (0.0, 1.0, 0.7, 0.0)),
    ("split_pair_generic", 1): (KP, (0.0, 0.0, 1.0, 0.7)),
    ("split_pair_other_partner", 1): (KP, (1.0, 1.3, 0.0, 0.0)),
    ("three_phase_skew", 1): (K3, (1.0, 0.0, -1.3)),
    ("three_phase_mixed", 1): (K3, (1.0, 1.3 / 0.7, 0.0)),
    ("shifted_line_low", 1): (K3, (1.0, 0.7, 1.3)),
}
# Each catalog tau built on two Wronskian entries, by their coefficients.
TWO_COLUMN = {
    "split_pair_wronskian": (KP, (1.0, 1.3, 0.0, 0.0), (0.0, 0.0, 1.0, 0.7)),
    "three_phase_skew": (K3, (1.0, 0.0, -1.3), (0.0, 1.0, 0.7)),
    "shifted_line_low": (K3, (1.0, 0.7, 0.0), (1.0, 0.7, 1.3)),
    "shifted_line_high": (K3, (1.0, 0.7, 1.3), (0.0, 0.7, 1.3)),
}


def test_one_column_taus_are_phase_sums():
    """Each one-column catalog tau is sum c_m exp(theta_m) byte for byte,
    the mixed-sign difference of two one-phase expansions included."""
    cat = {name: (t1, t2) for name, t1, t2 in backlund_catalog()}
    for (name, level), (kappa, coeffs) in ONE_COLUMN.items():
        assert exact_terms(cat[name][level - 1]) == exact_terms(phase_sum(kappa, coeffs)), name


def test_two_column_taus_match_the_explicit_wronskian():
    """Each two-column catalog tau has the explicit Wronskian's key set and
    its coefficients within 4 ulp."""
    cat = {name: t2 for name, _, t2 in backlund_catalog()}
    for name, (kappa, coeffs_a, coeffs_b) in TWO_COLUMN.items():
        tau, reference = cat[name], explicit_wronskian(kappa, coeffs_a, coeffs_b)
        assert tau.gens == reference.gens and tau.terms.keys() == reference.terms.keys(), name
        for key, c in reference.terms.items():
            assert abs(tau.terms[key] - c) <= 4 * np.spacing(abs(c)), (name, key)


def test_wrong_partner_is_refuted():
    """A lower tau that is not a cofactor row fails the coupling loudly."""
    x, y, t = pts(3)
    tau2 = wronskian_tau(KP, [[1.0, 0.0], [1.3, 0.0], [0.0, 1.0], [0.0, 0.7]])
    wrong = wronskian_tau(KP, [[1.0], [0.7], [0.0], [0.0]])
    res = worst(backlund_parts(wrong, tau2), x, y, t)
    assert res["x"] > 1e-3 and res["t"] > 1e-3


def test_shifted_line_low_matches_closed_form():
    """The low shifted pair is a single line with a computable offset."""
    a, b = 0.7, 1.3
    x, y, t = pts(4)
    cat = {name: (t1, t2) for name, t1, t2 in backlund_catalog()}
    u2 = MiuraData(*cat["shifted_line_low"]).u2
    th1 = theta(K3, 1, x, y, t)
    th2 = theta(K3, 2, x, y, t)
    mu = 0.5 * np.log(a * (K3[2] - K3[1]) / (K3[2] - K3[0]))
    expected = 0.5 * (K3[1] - K3[0]) ** 2 * sech2(0.5 * (th2 - th1) + mu)
    got = u2.eval(x, y, t).real
    assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))


def test_shifted_line_high_matches_closed_form():
    a, b = 0.7, 1.3
    x, y, t = pts(5)
    cat = {name: (t1, t2) for name, t1, t2 in backlund_catalog()}
    u2 = MiuraData(*cat["shifted_line_high"]).u2
    th2 = theta(K3, 2, x, y, t)
    th3 = theta(K3, 3, x, y, t)
    mu = 0.5 * np.log((b / a) * (K3[2] - K3[0]) / (K3[1] - K3[0]))
    expected = 0.5 * (K3[2] - K3[1]) ** 2 * sech2(0.5 * (th3 - th2) + mu)
    got = u2.eval(x, y, t).real
    assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))


def test_three_phase_partners_build_one_tau():
    """Two different second rows span the same three-phase Wronskian."""
    b, a = 1.3, 0.7
    x, y, t = pts(6)
    skew = wronskian_tau(K3, [[1.0, 0.0], [0.0, 1.0], [-b, a]])
    mixed = wronskian_tau(K3, [[1.0, 0.0], [b / a, 1.0], [0.0, a]])
    vs, vm = skew.eval(x, y, t), mixed.eval(x, y, t)
    assert np.max(np.abs(vs - vm)) < 1e-12 * np.max(np.abs(vs))


# ----- pair potentials -----


@pytest.mark.parametrize("label", ["p_chain", "vacuum_line", "vacuum_three", "o_ch12", "o_ch34"])
def test_pair_invariants(label):
    x, y, t = pts(7)
    if label == "p_chain":
        fam1, fam2 = p_chain()
        data = MiuraData(fam1.tau, fam2.tau)
    elif label == "vacuum_line":
        data = MiuraData(None, JostFamily(SolitonConfig("one_line", K3, pair=(1, 3))).tau)
    elif label == "vacuum_three":
        data = MiuraData(None, wronskian_tau(K3, [[1.0], [0.7], [1.3]]))
    else:
        pair = (1, 2) if label == "o_ch12" else (3, 4)
        low = JostFamily(SolitonConfig("one_line", KO, pair=pair))
        data = MiuraData(low.tau, JostFamily(SolitonConfig("o_type", KO)).tau)
    res = worst(data.invariant_parts(), x, y, t)
    for name, val in res.items():
        assert val < 1e-10, f"{label}/{name}: {val:.2e}"


def test_invariants_refute_uncoupled_pair():
    x, y, t = pts(8)
    data = MiuraData(wronskian_tau(KP, [[1.0], [0.7], [0.0], [0.0]]),
                     wronskian_tau(KP, [[1.0, 0.0], [1.3, 0.0], [0.0, 1.0], [0.0, 0.7]]))
    res = worst(data.invariant_parts(), x, y, t)
    assert res["map_plus"] > 1e-3 and res["flow"] > 1e-3


# ----- first-order transforms -----


def mixed_wave(lo: JostFamily, hi: JostFamily) -> Carried:
    return carried_from_primitive(lo.phi(beta=0.9) * hi.phi_star(beta=0.37))


def test_transform_signs_differ_by_twice_dx():
    fam1, fam2 = p_chain()
    data = MiuraData(fam1.tau, fam2.tau)
    wave = mixed_wave(fam1, fam2)
    x, y, t = pts(9)
    both = transform_parts(data.v, wave)
    assert set(both) == {1, -1}
    plus, minus = both[1], both[-1]
    # the adjoint flips only the dx summand
    for p, m in zip(plus[1:], minus[1:]):
        assert np.array_equal(p.eval(x, y, t), m.eval(x, y, t))
    diff = plus[0].eval(x, y, t) - minus[0].eval(x, y, t)
    twice = 2.0 * wave.value.dx().eval(x, y, t)
    assert np.max(np.abs(diff - twice)) < 1e-12 * np.max(np.abs(twice))


def test_transform_needs_nonlocal_data():
    data = MiuraData(None, wronskian_tau(K3, [[1.0], [0.7], [0.0]]))
    bare = Carried(data.u2)
    with pytest.raises(MissingPrimitive):
        transform_parts(data.v, bare)


# ----- conjugation routes -----


ROUTE_KEYS = {f"route{n}_{form}" for n in range(1, 9) for form in ("primitive", "direct")}


@pytest.fixture(scope="module")
def mixed_routes():
    """Worst residuals of all routes on the mixed product of the p chain."""
    fam1, fam2 = p_chain()
    data = MiuraData(fam1.tau, fam2.tau)
    return worst(miura_lax_parts(data, mixed_wave(fam1, fam2)), *pts(10, n=10))


@pytest.mark.parametrize("which", range(1, 9))
def test_conjugation_routes_on_mixed_product(mixed_routes, which):
    assert set(mixed_routes) == ROUTE_KEYS
    res = {form: mixed_routes[f"route{which}_{form}"] for form in ("primitive", "direct")}
    assert res["primitive"] < 1e-9 and res["direct"] < 1e-9, res


def test_routes_on_plane_pair_with_manual_carry():
    """A bare exponential pair carried by hand passes the routes of its step."""
    beta, beta_prime = 1.1, 0.25
    fam0 = JostFamily(SolitonConfig("vacuum", ()))
    fam1 = JostFamily(SolitonConfig("one_line", K3, pair=(1, 2)))
    prod = fam0.phi(beta=beta) * fam0.phi_star(beta=beta_prime)
    wave = Carried(prod, xprim=prod * (1.0 / (beta - beta_prime)),
                   ydxinv=(beta + beta_prime) * prod)
    data = MiuraData(None, fam1.tau)
    res = worst(miura_lax_parts(data, wave), *pts(11, n=10))
    assert set(res) == ROUTE_KEYS
    # routes 5..8 act on the base step (1, 1), which is trivial, so they
    # hold exactly and say nothing here
    for n in range(1, 5):
        for form in ("primitive", "direct"):
            assert res[f"route{n}_{form}"] < 1e-12, (n, form, res)


def test_routes_need_exact_primitive():
    fam1, fam2 = p_chain()
    data = MiuraData(fam1.tau, fam2.tau)
    wave = pair_product(fam1.phi(beta=0.9), fam1.phi_star(beta=0.37))
    with pytest.raises(MissingPrimitive):
        miura_lax_parts(data, wave)


# ----- linearized flow intertwining -----


SIGN_NAMES = {1: "plus", -1: "minus"}


@pytest.fixture(scope="module")
def vacuum_flows():
    fam0 = JostFamily(SolitonConfig("vacuum", ()))
    fam1 = JostFamily(SolitonConfig("one_line", K3, pair=(1, 2)))
    data = MiuraData(None, fam1.tau)
    return worst(flow_intertwining_parts(data, mixed_wave(fam0, fam1)), *pts(14, n=6))


@pytest.fixture(scope="module")
def four_phase_flows():
    fam1, fam2 = p_chain()
    data = MiuraData(fam1.tau, fam2.tau)
    return worst(flow_intertwining_parts(data, mixed_wave(fam1, fam2)), *pts(15, n=4))


@pytest.mark.parametrize("sign", [1, -1])
def test_flow_intertwining_over_vacuum(vacuum_flows, sign):
    assert set(vacuum_flows) == set(SIGN_NAMES.values())
    assert vacuum_flows[SIGN_NAMES[sign]] < 1e-9


@pytest.mark.parametrize("sign", [1, -1])
def test_flow_intertwining_on_four_phase_chain(four_phase_flows, sign):
    assert set(four_phase_flows) == set(SIGN_NAMES.values())
    assert four_phase_flows[SIGN_NAMES[sign]] < 1e-9


@pytest.mark.parametrize("kind", ["p_type", "o_type"])
@settings(max_examples=12, deadline=None)
@given(raw=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4, unique=True),
       seed=st.integers(0, 2 ** 31 - 1))
def test_routes_and_flows_over_kappa(kind, raw, seed):
    """All routes and both flows hold on the top step of either chain, the
    line (2, 3) under a p_type and the line (1, 2) under an o_type, for any
    admissible phase speeds."""
    kappa = tuple(sorted(raw))
    assume(min(b - a for a, b in zip(kappa, kappa[1:])) >= 0.1)
    assume(min(abs(b - k) for b in (0.9, 0.37) for k in kappa) >= 0.1)
    pair = (2, 3) if kind == "p_type" else (1, 2)
    lo = JostFamily(SolitonConfig("one_line", kappa, pair=pair))
    hi = JostFamily(SolitonConfig(kind, kappa))
    data, wave = MiuraData(lo.tau, hi.tau), mixed_wave(lo, hi)
    x, y, t = pts(seed, n=10)
    routes = worst(miura_lax_parts(data, wave), x, y, t)
    flows = worst(flow_intertwining_parts(data, wave), x, y, t)
    assert set(routes) == ROUTE_KEYS and set(flows) == {"plus", "minus"}
    for name, val in {**routes, **flows}.items():
        assert val < 1e-9, f"{kind} {kappa} {name}: {val:.2e}"


# ----- level maps on wave-dual products -----


def raising(name: str) -> bool:
    return name.startswith("raise_")


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_product_maps_four_phase(direction):
    x, y, t = pts(17, n=10)
    res = worst(darboux_map_parts(SolitonConfig("p_type", KP), 1.7, 0.4), x, y, t)
    res = {name: val for name, val in res.items() if raising(name) == (direction == "plus")}
    assert len(res) == (6 if direction == "plus" else 10)
    for name, val in res.items():
        assert val < 1e-9, f"{name}: {val:.2e}"
    if direction == "minus":
        assert res["kernel_one"] < 1e-10 and res["kernel_two"] < 1e-10


@pytest.mark.parametrize("direction", ["plus", "minus"])
def test_product_maps_split_type(direction):
    x, y, t = pts(18, n=10)
    res = worst(darboux_map_parts(SolitonConfig("o_type", KO), 1.7, 0.4), x, y, t)
    res = {name: val for name, val in res.items() if raising(name) == (direction == "plus")}
    assert len(res) == 4
    for name, val in res.items():
        assert val < 1e-9, f"{name}: {val:.2e}"


def test_family_key_sets_are_pinned():
    cp, co = SolitonConfig("p_type", KP), SolitonConfig("o_type", KO)
    assert set(darboux_map_parts(cp, 1.7, 0.4)) == {
        "raise_two_mixed", "raise_two_wave", "raise_one_mixed", "raise_one_wave",
        "raise_two_discrete_dual", "raise_two_discrete_wave",
        "lower_two_mixed", "lower_two_wave", "lower_one_mixed", "lower_one_wave",
        "kernel_two", "kernel_one", "lower_two_discrete_dual", "lower_two_discrete_wave",
        "lower_two_discrete_wave_outer", "lower_one_discrete_wave"}
    assert set(darboux_map_parts(co, 1.7, 0.4)) == {
        "raise_mixed_ch12", "raise_wave_ch12", "raise_mixed_ch34", "raise_wave_ch34",
        "lower_mixed_ch12", "lower_wave_ch12", "lower_mixed_ch34", "lower_wave_ch34"}
    assert set(mode_transfer_parts(cp, 0.4)) == {
        "kernel_one", "kernel_two", "dual_kernel_one", "dual_kernel_two", "eigen_one",
        "eigen_two", "transfer_plus", "transfer_minus", "dual_transfer_plus",
        "dual_transfer_minus"}


def test_product_maps_reject_pole_proximity():
    cp, co = SolitonConfig("p_type", KP), SolitonConfig("o_type", KO)
    for build in (lambda: darboux_map_parts(cp, 0.5, 0.4),
                  lambda: darboux_map_parts(cp, 1.7, 0.5 + 1e-12),
                  lambda: darboux_map_parts(co, 1.7, 1.0 - 1e-12),
                  lambda: level_shift_parts(co, 1.0 + 1e-12)):
        with pytest.raises(PoleAtKappa):
            build()


def test_o_type_maps_take_a_wave_at_a_phase():
    """The o_type chain builds only waves at beta, and a wave has no pole, so
    beta on a discrete phase still gives identities that hold."""
    res = worst(darboux_map_parts(SolitonConfig("o_type", KO), 1.0, 0.4), *pts())
    assert max(res.values()) < 1e-12, res


def test_product_maps_reject_other_kinds():
    cfg = SolitonConfig("one_line", K3, pair=(1, 2))
    with pytest.raises(ConfigMismatch):
        darboux_map_parts(cfg, 1.7, 0.4)


# ----- level shifts -----


def test_level_shifts_four_phase():
    res = worst(level_shift_parts(SolitonConfig("p_type", KP), 1.7), *pts(20, n=10))
    assert set(res) == {f"{a}_{b}" for a in ("wave_step", "dual_step", "wave_heat", "dual_heat")
                        for b in ("one", "two")}
    for name, val in res.items():
        assert val < 1e-9, f"{name}: {val:.2e}"


def test_level_shifts_split_type():
    res = worst(level_shift_parts(SolitonConfig("o_type", KO), 1.7), *pts(21, n=10))
    assert len(res) == 8
    for name, val in res.items():
        assert val < 1e-9, f"{name}: {val:.2e}"


@pytest.mark.parametrize("kind,kappa", [("p_type", KP), ("o_type", KO)], ids=["p", "o"])
def test_level_maps_finite_in_the_far_field(kind, kappa):
    # the wave and dual values pass 1e308 here (exponents up to ~1e4)
    cfg = SolitonConfig(kind, kappa)
    x = np.array([-2000.0, -200.0, -100.0, 700.0, 2000.0])
    y = np.array([0.0, 0.0, 3.0, -2.0, 1.0])
    t = np.array([0.0, 0.0, -1.0, 0.5, 0.0])
    res = worst(level_shift_parts(cfg, 1.7), x, y, t)
    res.update(worst(darboux_map_parts(cfg, 1.7, 0.4), x, y, t))
    for name, val in res.items():
        assert np.isfinite(val) and val < 1e-9, f"{name}: {val:.2e}"


def test_level_shifts_reject_vacuum():
    with pytest.raises(ConfigMismatch):
        level_shift_parts(SolitonConfig("vacuum", ()), 1.7)


# ----- resonant transfers -----


@pytest.mark.parametrize("eta", [0.4, 1.9, 0.3 + 0.2j])
def test_mode_transfer_identities(eta):
    res = worst(mode_transfer_parts(SolitonConfig("p_type", KP), eta), *pts(23, n=10))
    for name, val in res.items():
        assert val < 1e-9, f"eta={eta} {name}: {val:.2e}"


def test_mode_transfer_needs_inner_channel():
    with pytest.raises(CaseMismatch):
        mode_transfer_parts(SolitonConfig("o_type", KO), 0.4)


# ----- one-dimensional transforms -----


def on_line(f, z):
    """A channel profile's values at (z, 0, 0)."""
    return f.eval(z, 0.0, 0.0)


@pytest.mark.parametrize("eta", [2.0, 0.3, 0.0, 1.2 + 0.7j])
def test_line_factorizations(eta):
    res = worst(factorization_parts(CP, eta, bump_profile(CP)), ZS, 0.0, 0.0)
    for name, val in res.items():
        assert val < 1e-10, f"eta={eta} {name}: {val:.2e}"


@pytest.mark.xfail(strict=True, reason=(
    "max-|part| normalization at a common zero of the parts: at c = 2, eta = 0 "
    "plus_primitive reads 1.0 at z = 0 (parts 0 and 8.9e-16), minus_primitive and "
    "minus_direct at z = -9 (parts 0 and 3.0e-49, 0 and 1.1e-36); sqrt(0.5625) = 0.75 "
    "is exact in binary, which is why the case at CP passes"))
def test_line_factorizations_at_rest_off_a_binary_root():
    res = worst(factorization_parts(2.0, 0.0, bump_profile(2.0)), ZS, 0.0, 0.0)
    assert max(res.values()) < 1e-10, res


@pytest.mark.parametrize("drift", [25.0 / 6.0, -0.7])
def test_line_commutation(drift):
    res = worst(commutation_parts(CP, 1.3, drift, bump_profile(CP)), ZS, 0.0, 0.0)
    assert res["plus"] < 1e-8 and res["minus"] < 1e-8


@pytest.mark.xfail(strict=True, reason=(
    "near eta = 0 the minus side is an O(eta) remainder of O(1) terms, since the "
    "minus transform annihilates sech^2 at eta = 0; the Rational profiles leave "
    "rounding of the O(1) terms in it at z = 0 (2e-9, 6e-8, 2e-8 at c = 0.5625, 2, 4)"))
def test_line_commutation_near_eta_zero():
    res = worst(commutation_parts(4.0, 1e-4, 25.0 / 6.0, bump_profile(4.0)), ZS, 0.0, 0.0)
    assert res["plus"] < 1e-8 and res["minus"] < 1e-8, res


def kernel_residual(eta: complex, reflected: bool = False, c: float = CP) -> float:
    prof = minus_kernel_profile(c, eta, reflected=reflected)
    return worst_residual(OneDimDarboux(c, eta).m_parts(-1, prof), KERNEL_ZS, 0.0, 0.0)


# |eta| in [0.05, 3] with Re eta > 0: real, or complex at |arg eta| <= 1.5 < pi/2
CHANNEL_ETA = st.one_of(
    st.floats(0.05, 3.0),
    st.builds(lambda r, arg: complex(r * np.cos(arg), r * np.sin(arg)),
              st.floats(0.05, 3.0), st.floats(-1.5, 1.5)))


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.05, 4.0), eta=CHANNEL_ETA, drift=st.floats(-5.0, 5.0))
def test_channel_identities_over_gap_and_frequency(c, eta, drift):
    """Factorizations, commutation and kernel membership over the admissible
    channels, at the bounds the fixed-parameter tests use."""
    f = bump_profile(c)
    fact = worst(factorization_parts(c, eta, f), ZS, 0.0, 0.0)
    assert max(fact.values()) < 1e-10, fact
    comm = worst(commutation_parts(c, eta, drift, f), ZS, 0.0, 0.0)
    assert max(comm.values()) < 1e-8, comm
    assert kernel_residual(eta, c=c) < 1e-9


@pytest.mark.parametrize("eta", [2.0, 0.3, 0.9 + 0.4j])
def test_minus_kernel_membership(eta):
    assert kernel_residual(eta) < 1e-9


def test_mirrored_kernel_in_complex_strip():
    # imaginary part chosen so the branch root drops below the channel rate
    assert kernel_residual(0.1 + 0.45j, reflected=True) < 1e-9
    prof = minus_kernel_profile(CP, 0.1 + 0.45j, reflected=True)
    zs = np.linspace(-6.0, 6.0, 25)
    assert np.all(np.isfinite(on_line(prof.value, zs)))


def test_mirrored_kernel_rejects_real_eta():
    with pytest.raises(InadmissibleEta):
        minus_kernel_profile(CP, 2.0, reflected=True)


def test_kernel_needs_positive_gap():
    with pytest.raises(InvalidBranch):
        minus_kernel_profile(-0.25, 1.0)


def test_exact_and_sampled_transforms_agree():
    op = OneDimDarboux(CP, 1.1, alpha=0.3)
    f = bump_profile(CP)
    exact = on_line(op.m_apply(1, f), op.grid.z)
    sampled = op.m_apply_sampled(1, f)
    inner = np.abs(op.grid.z) <= op.window - 1.5
    err = np.max(np.abs(exact - sampled)[inner]) / np.max(np.abs(exact))
    assert err < 1e-9


@pytest.mark.parametrize("sign", [1, -1])
def test_inverse_roundtrip_high_region(sign):
    op = OneDimDarboux(CP, 2.0, alpha=0.3)
    assert t1_roundtrip(op, sign, bump_profile(CP)) < 1e-7


@pytest.mark.xfail(strict=True, reason=(
    "the two-sided plus inverse loses about exp(-(Re gamma(-eta) - sqrt(c)) window) "
    "to the window edge, and no gate catches it: here that is 1.73 nats, the margin "
    "over sqrt(c) + alpha is 6e-3, and the round trip reads 0.122"))
def test_two_sided_plus_roundtrip_on_a_slow_tail():
    op = OneDimDarboux(2.955, 1.843, alpha=0.0691)
    assert t1_roundtrip(op, 1, bump_profile(2.955)) <= 1e-7


@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_inverse_roundtrip_low_minus(eta):
    op = OneDimDarboux(CP, eta, alpha=0.3)
    assert t1_roundtrip(op, -1, bump_profile(CP), low=True) < 1e-7


def test_inverse_roundtrip_low_plus_on_orthogonal_input():
    """Transforming first lands in the solvable span, where the low inverse
    is a true two-sided inverse."""
    op = OneDimDarboux(CP, 0.0, alpha=0.3)
    f = bump_profile(CP)
    h = op.m_apply(1, f)
    assert t1_roundtrip(op, 1, h, low=True) < 1e-7
    v = t1_apply(op, 1, h, low=True)
    fv = on_line(f.value, op.grid.z)
    inner = np.abs(op.grid.z) <= op.window - 1.5
    assert np.max(np.abs(v - fv)[inner]) / np.max(np.abs(fv)) < 1e-7


@pytest.mark.parametrize("sign,eta", [(1, 0.3 + 0.18j), (-1, 0.3 - 0.18j)])
def test_split_channel_complex_frequency_roundtrip(sign, eta):
    # the imaginary part keeps the branch root above the gate at both signs
    op = OneDimDarboux(0.25, eta, alpha=0.03, window=96)
    assert t1_roundtrip(op, sign, bump_profile(0.25)) < 1e-7


def test_low_frequency_gates():
    op = OneDimDarboux(CP, 0.0, alpha=0.3)
    f = bump_profile(CP)
    with pytest.raises(RegionViolation):
        t1_apply(op, -1, f)
    with pytest.raises(RegionViolation):
        t1_apply(op, 1, f)
    op2 = OneDimDarboux(CP, 2.0, alpha=0.3)
    with pytest.raises(RegionViolation):
        t1_apply(op2, 1, f, low=True)
    # above the threshold the based minus form returns a growing solution
    with pytest.raises(RegionViolation):
        t1_apply(op2, -1, f, low=True)
    op3 = OneDimDarboux(0.117, 0.0987 - 0.918j, alpha=0.212)
    with pytest.raises(RegionViolation):
        t1_apply(op3, -1, bump_profile(0.117), low=True)


@pytest.mark.parametrize("window", [20.5, np.nan, True, "24"])
def test_channel_window_must_be_an_integer(window):
    with pytest.raises(ConfigMismatch):
        OneDimDarboux(CP, 2.0, alpha=0.3, window=window)


def test_secular_pairing_gate():
    op = OneDimDarboux(CP, 0.0, alpha=0.3)
    with pytest.raises(OrthogonalityViolation):
        t1_apply(op, 1, bump_profile(CP), low=True)


def test_weight_gates():
    f = bump_profile(CP)
    with pytest.raises(AlphaOutOfRange):
        t1_apply(OneDimDarboux(CP, 2.0), 1, f)
    with pytest.raises(AlphaOutOfRange):
        t1_apply(OneDimDarboux(CP, 2.0, alpha=1.5), 1, f)
    with pytest.raises(AlphaOutOfRange):
        OneDimDarboux(CP, 2.0, alpha=-0.1)


def test_sampled_input_shape_checked():
    op = OneDimDarboux(CP, 2.0, alpha=0.3)
    with pytest.raises(ConfigMismatch):
        t1_apply(op, 1, np.zeros(5))


def test_transform_sign_checked_everywhere():
    op = OneDimDarboux(CP, 2.0, alpha=0.3)
    f = bump_profile(CP)
    with pytest.raises(InvalidBranch):
        op.m_apply(0, f)
    with pytest.raises(InvalidBranch):
        op.m_apply_sampled(2, on_line(f.value, op.grid.z))
    with pytest.raises(InvalidBranch):
        t1_apply(op, 0, f)
    with pytest.raises(InvalidBranch):
        Branch(0.0, 0.5).beta(0.3, 0)


def _reference_sweep(grid, g, q):
    """The cumulative sweep with the real per-grid basis and einsum contraction."""
    off, w = grid.offsets, grid.unit_w
    totals = g @ (w * np.exp(q * (off - 1.0)))
    edge_acc = np.empty(grid.npan, dtype=complex)
    acc = 0j
    for k in range(grid.npan):
        edge_acc[k] = acc
        acc = acc * np.exp(-q) + totals[k]
    carried = edge_acc[:, None] * np.exp(-q * off)[None, :]
    kernel = off[:, None] * w[None, :] * np.exp(q * off[:, None] * (off[None, :] - 1.0))
    return carried + g @ np.einsum("ij,ijm->im", kernel, grid._basis).T


def _reference_operator(c, eta, alpha, window):
    """An operator whose grid builds its own float matrices from the Gauss rule."""
    op = OneDimDarboux(c, eta, alpha=alpha, window=window)
    grid = PanelGrid(-op.window, op.window)
    xg, _ = npleg.leggauss(grid.order)
    to_coef = np.linalg.inv(npleg.legvander(xg, grid.order - 1))
    slope = npleg.legval(xg, npleg.legder(np.eye(grid.order))).T
    grid._deriv = 2.0 * slope @ to_coef
    sub = np.outer(grid.offsets, grid.offsets)
    grid._basis = npleg.legvander(2.0 * sub - 1.0, grid.order - 1) @ to_coef
    op.grid = grid  # set before the cached property is first read
    return op


@settings(max_examples=60, deadline=None)
@given(c=st.floats(0.1, 4.0), eta=st.one_of(
           st.floats(0.0, 3.0),
           st.builds(complex, st.floats(-3.0, 3.0), st.floats(-1.5, 1.5))),
       alpha_share=st.floats(0.02, 0.98), sign=st.sampled_from([1, -1]),
       low=st.booleans(), window=st.sampled_from([None, 24, 48]))
# the branch point gamma(-eta) = 0 of the plus inverse
@example(c=1.0, eta=-1j, alpha_share=0.5, sign=1, low=True, window=None)
def test_shared_rule_inverse_matches_per_grid_reference(c, eta, alpha_share, sign, low,
                                                        window):
    """t1_apply on the shared complex rule agrees with per-grid float matrices
    contracted by einsum, wherever the inverse applies."""
    alpha = 2.0 * np.sqrt(c) * alpha_share
    try:
        op = OneDimDarboux(c, eta, alpha=alpha, window=window)
        f = bump_profile(c)
        if sign == 1 and low:  # the low plus inverse needs the solvable span
            f = op.m_apply(1, f)
        got = t1_apply(op, sign, f, low=low)
    except KplabError:
        return
    ref_op = _reference_operator(c, eta, alpha, window)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanhexp, "_left_sweep", _reference_sweep)
        want = t1_apply(ref_op, sign, f, low=low)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_operators_of_one_channel_share_grid_and_nodes():
    a = OneDimDarboux(CP, 2.0, alpha=0.3, window=24)
    b = OneDimDarboux(CP, 0.3 - 0.2j, alpha=0.1, window=24)
    assert a.grid is b.grid
    for arr_a, arr_b in zip(a.node_profiles, b.node_profiles):
        assert arr_a is arr_b
        with pytest.raises(ValueError):
            arr_a[...] = 0.0
    wider = OneDimDarboux(CP, 2.0, alpha=0.3, window=48)
    assert wider.grid is not a.grid
    assert all(w is not n for w, n in zip(wider.node_profiles, a.node_profiles))


def test_node_profiles_come_from_the_one_profile_cache():
    """psi, sech and cosh at the nodes are `_profile_nodes` entries, the same
    arrays an input of those profiles reads."""
    op = OneDimDarboux(CP, 2.0, alpha=0.3, window=24)
    _, sech, cosh, psi, _ = _hyperbolic(op.root)
    assert op.psi is psi
    for k, profile in enumerate((psi, sech, cosh)):
        assert op.node_profiles[k] is op._on_grid(profile)
        assert op.node_profiles[k] is _profile_nodes(profile, op.window)


def test_bump_profile_is_one_object_per_gap():
    assert bump_profile(CP) is bump_profile(CP)
    assert bump_profile(0.25) is not bump_profile(CP)


def test_kink_profile_is_one_object_per_gap():
    assert kink_profile(CP) is kink_profile(CP) is OneDimDarboux(CP, 2.0).psi
    assert kink_profile(0.25) is not kink_profile(CP)


def test_profile_node_cache_is_bounded_and_read_only():
    limit = _profile_nodes.cache_info().maxsize
    assert isinstance(limit, int)
    prof = bump_profile(0.3).value
    first = _profile_nodes(prof, 12).tobytes()
    for k in range(limit + 5):
        c = 0.5 + 0.1 * k
        vals = OneDimDarboux(c, 1.0, alpha=0.2, window=12)._on_grid(bump_profile(c))
        with pytest.raises(ValueError):
            vals[...] = 0.0
    assert _profile_nodes.cache_info().currsize <= limit
    misses = _profile_nodes.cache_info().misses
    # the evicted profile is rebuilt with the same bytes
    assert _profile_nodes(prof, 12).tobytes() == first
    assert _profile_nodes.cache_info().misses == misses + 1


def test_one_profile_gets_node_values_per_window_shared_across_gaps():
    f = bump_profile(CP)
    ops = [OneDimDarboux(CP, 2.0, alpha=0.3, window=24),
           OneDimDarboux(CP, 2.0, alpha=0.3, window=48),
           OneDimDarboux(1.0, 2.0, alpha=0.3, window=24)]
    vals = [op._on_grid(f) for op in ops]
    for op, v in zip(ops, vals):
        assert np.array_equal(v, on_line(f.value, op.grid.z))
        assert op._on_grid(f.value) is v  # a bare Rational shares its carrier's entry
    assert vals[0].size != vals[1].size
    # the grid depends only on the window, so one gap's entry serves the other
    assert ops[2].grid is ops[0].grid
    assert vals[2] is vals[0]


# (c, eta, alpha, window, sign, low, input): every inverse form, the low plus
# one on the plus transform of the bump, which is in its solvable span
ROUNDTRIP_CASES = [
    (CP, 2.0, 0.3, None, 1, False, "bump"),
    (CP, 2.0, 0.3, None, -1, False, "bump"),
    (CP, 0.3, 0.3, None, -1, True, "bump"),
    (CP, 0.0, 0.3, None, 1, True, "transformed"),
    (0.25, 0.3 - 0.18j, 0.03, 96, -1, False, "bump"),
]


def _roundtrip_bytes() -> list[bytes]:
    out = []
    for c, eta, alpha, window, sign, low, kind in ROUNDTRIP_CASES:
        op = OneDimDarboux(c, eta, alpha=alpha, window=window)
        f = bump_profile(c)
        if kind == "transformed":
            f = op.m_apply(1, f)
        out.append(np.float64(t1_roundtrip(op, sign, f, low=low)).tobytes())
        out.append(t1_apply(op, sign, f, low=low).tobytes())
    return out


def test_roundtrip_is_byte_stable_across_cleared_caches():
    warm = _roundtrip_bytes()
    assert _roundtrip_bytes() == warm
    for cached in (_hyperbolic, _window_grid, _profile_nodes,
                   tanhexp._sweep_kernel, tanhexp._unit_rule):
        cached.cache_clear()
    assert _roundtrip_bytes() == warm


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("sign,eta,low", [(1, 2.0, False), (-1, 2.0, False),
                                          (-1, 0.3, True), (1, 0.0, True)])
def test_non_finite_samples_raise(bad, sign, eta, low):
    """One bad sample among thousands is a ConfigMismatch, never a NaN output."""
    op = OneDimDarboux(CP, eta, alpha=0.3)
    f = bump_profile(CP)
    vals = np.array(op._on_grid(op.m_apply(1, f) if low and sign == 1 else f))
    vals[1000] = bad
    with pytest.raises(ConfigMismatch):
        t1_apply(op, sign, vals, low=low)
    with pytest.raises(ConfigMismatch):
        t1_roundtrip(op, sign, vals, low=low)
    with pytest.raises(ConfigMismatch):
        op.m_apply_sampled(sign, vals)


def test_non_finite_profile_raises():
    op = OneDimDarboux(CP, 2.0, alpha=0.3)
    with pytest.raises(ConfigMismatch):
        t1_apply(op, 1, bump_profile(CP).value * np.nan)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tail_gate_rejects_a_non_finite_integrand(side, bad):
    grid = _window_grid(24)
    g = np.exp(-grid.z ** 2).astype(complex)
    g[7] = bad
    with pytest.raises(ConfigMismatch):
        _tail(grid, g, 0.5, side)


def test_kink_and_bump_profiles():
    psi = kink_profile(CP)
    zs = np.linspace(-4.0, 4.0, 33)
    assert np.max(np.abs(on_line(psi, zs) - 0.75 * np.tanh(0.75 * zs))) < 1e-12
    f = bump_profile(CP)
    got = on_line(f.prim().dx(), zs)
    assert np.max(np.abs(got - on_line(f.value, zs))) < 1e-12
    assert abs(on_line(f.prim(), np.array([40.0]))[0]) < 1e-12


# ----- aggregate report -----


CATALOG = ("line_over_vacuum", "three_term_over_vacuum", "full_rank_pair",
           "rank_pair_degenerate", "split_pair_generic", "split_pair_wronskian",
           "split_pair_other_partner", "three_phase_skew", "three_phase_mixed",
           "shifted_line_low", "shifted_line_high", "p_type_pair", "o_type_low", "o_type_high")


def test_identity_report_is_green_and_stable():
    rep = identity_report(npts=8)
    maps_p = {f"{verb}_{step}_{what}" for verb in ("raise", "lower")
              for step in ("two", "one") for what in ("mixed", "wave")} | {
        "raise_two_discrete_dual", "raise_two_discrete_wave", "lower_two_discrete_dual",
        "lower_two_discrete_wave", "lower_two_discrete_wave_outer", "lower_one_discrete_wave",
        "kernel_two", "kernel_one"}
    maps_o = {f"{verb}_{what}_{ch}" for verb in ("raise", "lower")
              for what in ("mixed", "wave") for ch in ("ch12", "ch34")}
    shifts = {f"{what}_{kind}" for what in ("wave", "dual") for kind in ("step", "heat")}
    branch = {"kernel_one", "kernel_two", "dual_kernel_one", "dual_kernel_two", "eigen_one",
              "eigen_two", "transfer_plus", "transfer_minus", "dual_transfer_plus",
              "dual_transfer_minus"}
    expected = ({f"p_{k}" for k in maps_p} | {f"o_{k}" for k in maps_o}
                | {f"p_shift_{k}_{step}" for k in shifts for step in ("two", "one")}
                | {f"o_shift_{k}_{ch}" for k in shifts for ch in ("ch12", "ch34")}
                | {f"p_branch_{k}" for k in branch}
                | {f"pair_{name}_{eq}" for name in CATALOG for eq in ("x", "t")})
    assert len(expected) == 78
    assert set(rep) == expected
    assert [name for name, _, _ in backlund_catalog()] == list(CATALOG)
    vals = np.array(list(rep.values()))
    assert np.all(np.isfinite(vals)), [k for k, v in rep.items() if not np.isfinite(v)]
    worst = np.max(vals)
    assert worst < 1e-9, f"worst residual {worst:.2e}"


# The 16-point sample sets of the report_small benchmark's seed streams 0-20
# that fail the gate in their first 1,500 timed ops: bench seed 1 at ops 226
# and 1410, bench seed 12 at op 1415 (about 1.2e-5 of all reports drawn).
@pytest.mark.xfail(strict=True, reason=(
    "defect 3: at (x, y, t) = (2.093, 0.550, 0.455) of seed 1712216964 the numerators "
    "of both parts of o_shift_wave_step_ch12 cancel by 3.9e8, so it reads 2.86e-7 "
    "(ch34 9.9e-9); a 50-digit mpmath evaluation of the same coefficients still reads "
    "2.35e-7.  Seed 1143500821 reads ch12 1.25e-9, seed 1475449262 ch12 1.92e-9 and "
    "ch34 1.35e-9"))
@pytest.mark.parametrize("sample_seed", [1712216964, 1143500821, 1475449262])
def test_report_on_a_cancelling_sample_set_passes_the_gate(sample_seed):
    rep = identity_report(seed=sample_seed, npts=16)
    assert max(rep.values()) < 1e-9, max(rep.items(), key=lambda kv: kv[1])


def _report_families():
    """(prefix, family) in the order `identity_report` reduces them."""
    cfg_p, cfg_o = SolitonConfig("p_type", REPORT_KAPPA_P), SolitonConfig("o_type", REPORT_KAPPA_O)
    yield "p_", darboux_map_parts(cfg_p, REPORT_BETA, REPORT_BETA_PRIME)
    yield "o_", darboux_map_parts(cfg_o, REPORT_BETA, REPORT_BETA_PRIME)
    yield "p_shift_", level_shift_parts(cfg_p, REPORT_BETA)
    yield "o_shift_", level_shift_parts(cfg_o, REPORT_BETA)
    yield "p_branch_", mode_transfer_parts(cfg_p, REPORT_ETA)
    for name, tau1, tau2 in backlund_catalog():
        yield f"pair_{name}_", backlund_parts(tau1, tau2)


def _part_by_part(parts, x, y, t) -> float:
    """The worst residual with each part evaluated on its own, nothing shared."""
    scaled = [p.eval_scaled(x, y, t) for p in parts]
    top = np.max([m for m, _ in scaled], axis=0)
    top = np.where(np.isneginf(top), 0.0, top)
    res, scale = sum_residual([s * np.exp(m - top) for m, s in scaled])
    return float(np.max(res / scale))


@pytest.mark.parametrize("npts", [16, 64])
@pytest.mark.parametrize("seed", [0, 5, 1025828390])
def test_report_equals_part_by_part_reduction(seed, npts):
    x, y, t = sample_points(seed, npts)
    expected = {prefix + name: _part_by_part(parts, x, y, t)
                for prefix, family in _report_families() for name, parts in family.items()}
    rep = identity_report(seed=seed, npts=npts)
    assert list(rep) == list(expected)
    assert all(rep[key] == val for key, val in expected.items()), \
        [key for key, val in expected.items() if rep[key] != val]


def test_each_distinct_sum_is_evaluated_once_per_identity(monkeypatch):
    x, y, t = pts(4)
    evaluate = ExpSum.eval_scaled
    calls: list[ExpSum] = []

    def counted(self, *points):
        calls.append(self)
        return evaluate(self, *points)

    monkeypatch.setattr(ExpSum, "eval_scaled", counted)
    shared = 0
    for _, family in _report_families():
        for name, parts in family.items():
            refs = [e for p in parts for e in ([p] if isinstance(p, ExpSum) else [p.num, *p.den])]
            sums = {id(e) for e in refs}
            calls.clear()
            worst_residual(parts, x, y, t)
            assert sorted(map(id, calls)) == sorted(sums), name
            shared += len(refs) > len(sums)
    assert shared  # in some identities the parts share a sum


def test_report_evaluates_each_den_base_once(monkeypatch):
    """A report shares the pairs of its den bases over all its identities;
    it keeps nothing point-dependent, and `worst_residual` shares nothing."""
    evaluate = ExpSum.eval_scaled
    calls: list[ExpSum] = []

    def counted(self, *points):
        calls.append(self)
        return evaluate(self, *points)

    identity_report(seed=3, npts=8)  # the level chains and their waves are built
    dens = {id(base): base for _, family in _report_families() for parts in family.values()
            for p in parts if isinstance(p, Rational) for base in p.den}
    monkeypatch.setattr(ExpSum, "eval_scaled", counted)
    counts = []
    for seed in (3, 4):
        calls.clear()
        identity_report(seed=seed, npts=8)
        counts.append(len(calls))
        per_base = [sum(e is base for e in calls) for base in dens.values()]
        assert max(per_base) == 1 and sum(per_base) == len(dens) == 7
    assert counts[0] == counts[1]
    parts = level_shift_parts(SolitonConfig("p_type", REPORT_KAPPA_P), REPORT_BETA)["wave_step_two"]
    own = {id(base) for p in parts for base in p.den}
    x, y, t = pts(4)
    calls.clear()
    worst_residual(parts, x, y, t)
    worst_residual(parts, x, y, t)
    assert own and sum(id(e) in own for e in calls) == 2 * len(own)


def test_second_report_builds_no_wave(monkeypatch):
    wave = JostFamily._wave
    built: list[tuple] = []

    def counted(self, *args, **kwargs):
        kept = set(map(id, self._waves.values()))
        out = wave(self, *args, **kwargs)
        if id(out) not in kept:
            built.append(args)
        return out

    monkeypatch.setattr(JostFamily, "_wave", counted)
    _level_steps.cache_clear()
    identity_report(npts=4)
    assert built
    built.clear()
    identity_report(npts=4)
    assert built == []


def test_report_is_repr_stable_across_cleared_caches():
    """The caches the report reads only keep work: emptied, they give back the
    same report, value for value."""
    warm = [repr(identity_report(seed=seed, npts=16)) for seed in (7, 11)]
    for cached in (expsum._unify, expsum._key_adder, expsum._sorted_arrays,
                   expsum._closure_plan, solitons.theta_gens, solitons.build_tau,
                   backlund_catalog, _level_steps):
        cached.cache_clear()
    assert [repr(identity_report(seed=seed, npts=16)) for seed in (7, 11)] == warm


def test_level_chains_are_bounded():
    """A sweep over phase speeds keeps at most two chains and their waves."""
    first = None
    for shift in np.linspace(0.0, 0.9, 10):
        cfg = SolitonConfig("p_type", tuple(k + shift for k in KP))
        level_shift_parts(cfg, 1.7 + shift)
        if first is None:
            first = weakref.ref(_level_steps(cfg)[0][2])
    assert _level_steps.cache_info().currsize <= 2
    gc.collect()
    assert first() is None


# ----- sweep over the phase speeds -----


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4, unique=True),
       st.sampled_from(["p_type", "o_type"]),
       st.integers(0, 2 ** 31 - 1))
def test_level_identities_over_kappa(raw, kind, seed):
    """Map products and level shifts of both kinds, and the p_type mode
    transfers, hold for any admissible phase speeds."""
    kappa = tuple(sorted(raw))
    assume(min(b - a for a, b in zip(kappa, kappa[1:])) >= 0.1)
    # the duals at beta = 1.7 and beta' = 0.4 have poles at the phase speeds
    assume(min(abs(b - k) for b in (1.7, 0.4) for k in kappa) >= 0.1)
    cfg = SolitonConfig(kind, kappa)
    x, y, t = pts(seed, n=12)
    families = {"map": darboux_map_parts(cfg, 1.7, 0.4), "shift": level_shift_parts(cfg, 1.7)}
    if kind == "p_type":
        families["branch"] = mode_transfer_parts(cfg, 0.4)
    for label, family in families.items():
        for name, val in worst(family, x, y, t).items():
            assert val < 1e-9, f"{kind} {kappa} {label} {name}: {val:.2e}"
