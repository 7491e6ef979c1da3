"""Jost waves over a soliton background, their duals and residues.

The wave at spectral point beta multiplies exp(beta x + beta^2 y - beta^3 t)
by a ratio of exponential sums; the dual flips the exponential factor and
inverts the per-phase shifts.  Both are read off the minor expansion that
tau itself stores, so every residue at a discrete phase is available in
closed form.  One routine, `JostFamily._wave`, builds all four kinds, and
each family keeps what it built.  The module also pairs a wave with a dual
into a product carrying its antiderivative data (`pair_product`, which
keeps nothing), and states the solution maps of that product as part lists
(`product_parts`); the background potential comes from `solitons.potential`.

`heat_parts`, `flow_parts` (the compatibility pair and its adjoint) and
`linearized_parts` (the linearized KP-II flow) are the only definitions of
these operators in the package, each as its list of summands.  No list
here takes sample points: the caller samples and `worst_residual` reduces.
"""
from __future__ import annotations

from .errors import ConfigMismatch, PoleAtKappa, finite_number
from .expsum import Carried, ExpSum, Gen, Rational
from .solitons import SolitonConfig, build_tau, potential


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

        This is the package's one pole policy: a dual factor with
        |w - kappa_m| < 1e-9 raises PoleAtKappa, so every identity that builds
        a dual near a discrete phase is rejected here.  The wave has no pole.
        A w that is not an `errors.finite_number` (a bool or a numeric string
        is not one) raises ConfigMismatch before any kept wave is looked up.
        """
        if pole is None:
            if not finite_number(w):
                raise ConfigMismatch(f"spectral point must be a finite number, got {w!r}")
            w = complex(w)
        key = (w, dual, pole)
        if key in self._waves:
            return self._waves[key]
        kappa = self.config.kappa
        skip = -1
        if pole is not None:
            if not 1 <= pole <= len(kappa):
                raise PoleAtKappa(f"phase index {pole} out of range 1..{len(kappa)}")
            skip, w = pole - 1, kappa[pole - 1]
        terms: dict[tuple[int, ...], complex] = {}
        for subset, factor in self.tau.terms.items():
            if pole is not None and subset[skip] != dual:
                continue
            for m, bit in enumerate(subset):
                if not bit or m == skip:
                    continue
                d = w - kappa[m]
                if not dual:
                    factor *= d
                elif abs(d) < 1e-9:
                    raise PoleAtKappa(
                        f"dual wave at {w} lies within 1e-9 of its pole at phase {m + 1} "
                        f"(kappa={kappa[m]}); use phi_star_residue")
                else:
                    factor /= d
            terms[subset] = factor
        gen = plane_gen(w)
        if dual:
            gen = tuple(-g for g in gen)
        num = ExpSum.exponential(1.0, gen) * ExpSum(self.tau.gens, terms)
        self._waves[key] = Rational.from_quotient(num, self.tau)
        return self._waves[key]

    def phi(self, beta: complex) -> Rational:
        """Wave annihilated by both compatibility operators; beta = ik on the real line."""
        return self._wave(beta, False)

    def phi_star(self, beta: complex) -> Rational:
        """Dual wave annihilated by the adjoint pair."""
        return self._wave(beta, True)

    def phi_residue(self, j: int) -> Rational:
        """The wave evaluated at the j-th discrete phase, 1-based."""
        return self._wave(None, False, pole=j)

    def phi_star_residue(self, j: int) -> Rational:
        """Residue of the dual at the j-th discrete phase, 1-based."""
        return self._wave(None, True, pole=j)


def pair_product(wave: Rational, dual: Rational) -> Carried:
    """wave times dual with its exact dx^{-1} dy attached.

    Valid whenever `wave` is annihilated by the forward operator and `dual`
    by its adjoint; then dy of the product is an exact x-derivative and
    dx^{-1} dy (wave dual) = dual wave_x - wave dual_x.
    """
    return Carried(wave * dual, xprim=None, ydxinv=dual * wave.dx() - wave * dual.dx())


def product_parts(family: JostFamily, beta: complex) -> dict[str, list]:
    """Parts of the wave-product solution maps at spectral point beta.

    For a wave and its dual at beta, w = wave*dual satisfies
    dx(4 dt w + 6 u dx w + dx^3 w) + 3 dy^2 w = 0 ("product"), and v = dx w
    solves the linearized flow ("derivative", `linearized_parts`).  Both
    rest on dy w = dx(dual dx wave - wave dx dual), the dx^{-1} dy that
    `pair_product` carries ("primitive").  There dy w enters split by the
    product rule, so the scale is the size of its two terms even where dy w
    vanishes identically.
    """
    wave, dual = family.phi(beta=beta), family.phi_star(beta=beta)
    prod = pair_product(wave, dual)
    u = potential(family.tau)
    w = prod.value
    return {
        "primitive": [wave * dual.dy(), dual * wave.dy(), -1.0 * prod.ydxinv.dx()],
        "product": [w.dt().dx() * 4.0, (u * w.dx()).dx() * 6.0,
                    w.dx().dx().dx().dx(), w.dy().dy() * 3.0],
        "derivative": linearized_parts(u, w.dx()),
    }
