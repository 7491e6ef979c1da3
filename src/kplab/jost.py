"""Jost waves over a soliton background, their duals and residues.

The wave at spectral point beta multiplies exp(beta x + beta^2 y - beta^3 t)
by a ratio of exponential sums; the dual flips the exponential factor and
inverts the per-phase shifts.  Both are read off the minor expansion that
tau itself stores, so every residue at a discrete phase is available in
closed form.  One routine, `JostFamily._wave`, builds all four kinds, and
each family keeps what it built.  The module also pairs a wave with a dual
into a product carrying its antiderivative data (`pair_product`, which
keeps nothing), and checks the off-diagonal resolvent kernels; the
background potential comes from `solitons.potential`.

`heat_parts`, `flow_parts` (the compatibility pair and its adjoint) and
`linearized_parts` (the linearized KP-II flow) are the only definitions of
these operators in the package, each as its list of summands.
"""
from __future__ import annotations

import numpy as np

from .branches import branch_of
from .errors import PoleAtKappa
from .expsum import Carried, ExpSum, Gen, Rational, sum_residual, worst_residual
from .solitons import SolitonConfig, build_tau, potential, potential_yprim, theta_eval


# ----- operators of the compatibility pair and the linearized flow -----


def heat_parts(u: Rational | None, g, star: bool) -> list:
    """Summands of -dy + dx^2 + u on g, or of the adjoint dy + dx^2 + u; u None is free."""
    parts = [g.dy() if star else -1.0 * g.dy(), g.dx().dx()]
    if u is not None:
        parts.append(u * g)
    return parts


def flow_parts(u: Rational, uy: Rational, g, star: bool) -> list:
    """Summands of 4 dt + 4 dx^3 + 6 u dx + 3 u_x + 3 uy on g, uy = dx^{-1}dy u.

    The adjoint negates every summand except the nonlocal one.
    """
    s = -1.0 if star else 1.0
    gx = g.dx()
    return [(4.0 * s) * g.dt(), (4.0 * s) * gx.dx().dx(),
            (6.0 * s) * (u * gx), (3.0 * s) * (u.dx() * g), 3.0 * (uy * g)]


def linearized_parts(u: Rational, f) -> list:
    """Summands of dx(4 f_t + 6 (u f)_x + f_xxx) + 3 f_yy, the linearized flow at u."""
    return [4.0 * f.dx().dt(), f.dx().dx().dx().dx(),
            6.0 * (u * f).dx().dx(), 3.0 * f.dy().dy()]


def plane_gen(w: complex) -> Gen:
    """Phase generator (w, w^2, -w^3) of the plane factor at spectral point w."""
    w = complex(w)
    return (w, w * w, -(w * w * w))


class JostFamily:
    """Waves, duals and residues for one configuration, each built once and kept.

    The numerators reweight the terms of tau: each key is the indicator
    vector of a row subset, each coefficient its minor times Vandermonde.
    A family never changes after it is built, so it keeps every wave, dual
    and residue it builds, keyed by what `_wave` was asked for.
    """

    def __init__(self, config: SolitonConfig):
        self.config = config
        self.tau = build_tau(config)
        self._waves: dict[tuple, Rational] = {}

    def _wave(self, w: complex | None, dual: bool, pole: int | None = None) -> Rational:
        """The wave (dual False) or dual wave at w over tau, built on the first call.

        Each term of tau on row subset S is weighted by prod over m in S of
        (w - kappa_m), inverted for the dual, and the numerator carries the
        plane factor exp(+-(w x + w^2 y - w^3 t)) as its first generator.
        With pole = j (1-based), w (passed as None) is kappa_j: the dual
        keeps the subsets that hold j and drops their vanishing factor, which
        is its residue there, and the wave keeps the subsets without j, whose
        weights do not vanish, which is its value there.
        """
        key = (w, dual, pole)
        if key in self._waves:
            return self._waves[key]
        kappa = self.config.kappa
        skip = -1
        if pole is not None:
            if not 1 <= pole <= len(kappa):
                raise PoleAtKappa(f"phase index {pole} out of range 1..{len(kappa)}")
            skip, w = pole - 1, kappa[pole - 1]
        items: list[tuple[tuple[int, ...], complex]] = []
        for subset, factor in self.tau.terms.items():
            if pole is not None and subset[skip] != dual:
                continue
            for m, bit in enumerate(subset):
                if not bit or m == skip:
                    continue
                d = w - kappa[m]
                if not dual:
                    factor *= d
                elif d == 0:
                    raise PoleAtKappa(
                        f"dual wave has a pole at phase {m + 1} (kappa={kappa[m]}); "
                        "use phi_star_residue")
                else:
                    factor /= d
            items.append((subset, factor))
        gen = plane_gen(w)
        if dual:
            gen = tuple(-g for g in gen)
        num = ExpSum.exponential(1.0, gen) * ExpSum.from_terms(self.tau.gens, items)
        self._waves[key] = Rational.from_quotient(num, self.tau)
        return self._waves[key]

    def phi(self, beta: complex) -> Rational:
        """Wave annihilated by both compatibility operators; beta = ik on the real line."""
        return self._wave(complex(beta), False)

    def phi_star(self, beta: complex) -> Rational:
        """Dual wave annihilated by the adjoint pair."""
        return self._wave(complex(beta), True)

    def phi_residue(self, j: int) -> Rational:
        """The wave evaluated at the j-th discrete phase, 1-based."""
        return self._wave(None, False, pole=j)

    def phi_star_residue(self, j: int) -> Rational:
        """Residue of the dual at the j-th discrete phase, 1-based."""
        return self._wave(None, True, pole=j)

    # ----- residue completeness -----

    def completeness_sum(self, x, y, t, xp, yp, tp) -> tuple[np.ndarray, np.ndarray]:
        """Sum over phases of wave(point) times dual residue(primed point)."""
        return sum_residual(
            self.phi_residue(j).eval(x, y, t) * self.phi_star_residue(j).eval(xp, yp, tp)
            for j in range(1, self.config.m_phases + 1))


def pair_product(wave: Rational, dual: Rational) -> Carried:
    """wave times dual with its exact dx^{-1} dy attached.

    Valid whenever `wave` is annihilated by the forward operator and `dual`
    by its adjoint; then dy of the product is an exact x-derivative and
    dx^{-1} dy (wave dual) = dual wave_x - wave dual_x.
    """
    return Carried(wave * dual, xprim=None, ydxinv=dual * wave.dx() - wave * dual.dx())


def product_residuals(family: JostFamily, beta: complex, x, y, t) -> dict[str, float]:
    """Worst relative residuals of the wave-product solution maps.

    For a wave and its dual at one spectral point, w = wave*dual satisfies
    dx(4 dt w + 6 u dx w + dx^3 w) + 3 dy^2 w = 0 and v = dx w solves the
    linearized flow (`linearized_parts`), with the intermediate
    dy w = dx(dual dx wave - wave dx dual), the dx^{-1} dy that
    `pair_product` carries.
    """
    prod = pair_product(family.phi(beta=beta), family.phi_star(beta=beta))
    u = potential(family.tau)
    w = prod.value

    d1 = w.dy().eval(x, y, t)
    d2 = prod.ydxinv.dx().eval(x, y, t)
    # both sides can vanish together (shared phase slopes); keep |w| in the scale
    iscale = np.maximum.reduce([np.abs(d1), np.abs(d2), np.abs(w.eval(x, y, t)),
                                np.full(np.shape(d1), 1e-300)])
    out = {"primitive": float(np.max(np.abs(d1 - d2) / iscale))}

    out["product"] = worst_residual([w.dt().dx() * 4.0, (u * w.dx()).dx() * 6.0,
                                     w.dx().dx().dx().dx(), w.dy().dy() * 3.0], x, y, t)
    out["derivative"] = worst_residual(linearized_parts(u, w.dx()), x, y, t)
    return out


# ----- resolvent kernel checks -----


def green_kernel_checks(kappa: tuple[float, ...], level: int, eta: float,
                        seed: int = 0, npts: int = 24) -> dict[str, float]:
    """Pointwise checks for the two-sided resolvent kernels.

    level 0 pairs the flat background with the (2,3) channel of `kappa`;
    level 1 the single line soliton on (2,3) with the (1,4) channel.  The
    channel branch is that of the p_type configuration on `kappa`, so
    phases it rejects raise RejectedConfig.
    Reported worst relative errors:

    annihilation    both compatibility operators kill the branch waves
    split           the side-selected wave product equals the smooth
                    component times one plus the residue corrections
    continuity      the component agrees across the sloped diagonal when
                    reconstructed separately from each branch product
    jump            d/dx of the component jumps by exp((i eta - k_i k_j)(y-y'))
    weighted_match  the residue-weighted d/dx ratios match across sides
    completeness    the waves at the discrete phases pair to zero; level 1
                    only, since the vacuum has no discrete phases
    """
    kappa = tuple(float(v) for v in kappa)
    if level == 0:
        family = JostFamily(SolitonConfig("vacuum", ()))
        corr_js: tuple[int, ...] = ()
        pair = (2, 3)
    elif level == 1:
        family = JostFamily(SolitonConfig("one_line", kappa, pair=(2, 3)))
        corr_js = (2, 3)
        pair = (1, 4)
    else:
        raise ValueError(f"level must be 0 or 1, got {level}")
    ki, kj = kappa[pair[0] - 1], kappa[pair[1] - 1]
    br = branch_of(SolitonConfig("p_type", kappa), pair)
    a = br.a
    gam = br.gamma(eta)
    rng = np.random.default_rng(seed)

    waves = {s: (family.phi(beta=br.beta(eta, s)), family.phi_star(beta=br.beta(eta, s)))
             for s in (1, -1)}
    res_pairs = [(family.phi_residue(j), family.phi_star_residue(j), kappa[j - 1])
                 for j in corr_js]

    out: dict[str, float] = {}
    xg = rng.uniform(-3.0, 3.0, npts)
    yg = rng.uniform(-3.0, 3.0, npts)
    tg = rng.uniform(-1.0, 1.0, npts)
    u, uy = potential(family.tau), potential_yprim(family.tau)
    out["annihilation"] = float(np.max([
        worst_residual(parts, xg, yg, tg)
        for w, ws in waves.values()
        for parts in (heat_parts(u, w, False), flow_parts(u, uy, w, False),
                      heat_parts(u, ws, True), flow_parts(u, uy, ws, True))]))

    def corr(s, xx, yy, xxp, yyp):
        """Residue correction sum and its x-derivative at t = 0."""
        tot = np.zeros(np.shape(xx), dtype=complex)
        totx = np.zeros(np.shape(xx), dtype=complex)
        beta_s = br.beta(eta, s)
        zz = np.zeros(np.shape(xx))
        for j, (pj, pjs, kv) in zip(corr_js, res_pairs):
            theta = theta_eval(kappa, j, xxp, yyp, 0.0) - theta_eval(kappa, j, xx, yy, 0.0)
            weight = np.exp(theta) * pjs.eval(xxp, yyp, zz) / (beta_s - kv)
            val = pj.eval(xx, yy, zz)
            tot = tot + weight * val
            totx = totx + weight * (pj.dx().eval(xx, yy, zz) - kv * val)
        return tot, totx

    def product(s, xx, yy, xxp, yyp, deriv=False):
        w, ws = waves[s]
        zz = np.zeros(np.shape(xx))
        lhs = (w.dx() if deriv else w).eval(xx, yy, zz)
        return -lhs * ws.eval(xxp, yyp, np.zeros(np.shape(xxp))) / (2.0 * gam)

    # off-diagonal: side-selected product vs component times corrections
    yy = rng.uniform(-1.5, 1.5, npts)
    yyp = rng.uniform(-1.5, 1.5, npts)
    zz = rng.uniform(-2.5, 2.5, npts)
    zzp = rng.uniform(-2.5, 2.5, npts)
    x = zz - 2.0 * a * yy
    xp = zzp - 2.0 * a * yyp
    pref = sum(theta_eval(kappa, j, x, yy, 0.0) - theta_eval(kappa, j, xp, yyp, 0.0)
               for j in pair)
    comp = -np.exp(0.5 * pref - gam * np.abs(zz - zzp) + 1j * eta * (yy - yyp)) / (2.0 * gam)
    side = np.where(zz > zzp, -1, 1)
    direct = np.where(side == -1,
                      product(-1, x, yy, xp, yyp),
                      product(1, x, yy, xp, yyp))
    cm, _ = corr(-1, x, yy, xp, yyp)
    cp, _ = corr(1, x, yy, xp, yyp)
    expected = comp * (1.0 + np.where(side == -1, cm, cp))
    # one side against its closed form, which is stricter than max-part
    out["split"] = float(np.max(np.abs(direct - expected) / np.abs(expected)))

    # on the diagonal: component reconstructed from each branch product
    zd = rng.uniform(-2.5, 2.5, npts)
    xd = zd - 2.0 * a * yy
    xdp = zd - 2.0 * a * yyp

    def reconstruct(s):
        d = product(s, xd, yy, xdp, yyp)
        dx = product(s, xd, yy, xdp, yyp, deriv=True)
        cv, cx = corr(s, xd, yy, xdp, yyp)
        g = d / (1.0 + cv)
        gx = (dx * (1.0 + cv) - d * cx) / (1.0 + cv) ** 2
        return g, gx

    gm, gmx = reconstruct(-1)
    gp, gpx = reconstruct(1)
    res, scale = sum_residual([gm, -gp])
    out["continuity"] = float(np.max(res / scale))
    jump_expected = np.exp((1j * eta - ki * kj) * (yy - yyp))
    # against the closed-form jump, which is stricter than max-part
    out["jump"] = float(np.max(np.abs((gmx - gpx) - jump_expected) / np.abs(jump_expected)))

    wm = []
    for j in corr_js or pair:
        kv = kappa[j - 1]
        lhs = (gmx - kv * gm) / (br.beta(eta, -1) - kv)
        rhs = (gpx - kv * gp) / (br.beta(eta, 1) - kv)
        res, scale = sum_residual([lhs, -rhs])
        wm.append(np.max(res / scale))
    out["weighted_match"] = float(np.max(wm))

    if corr_js:
        tot, scale = family.completeness_sum(xd, yy, np.zeros(npts), xdp, yyp, np.zeros(npts))
        out["completeness"] = float(np.max(tot / scale))
    return out
