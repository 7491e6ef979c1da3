"""Transforms that couple adjacent tau levels, and their line restrictions.

A coupled pair (tau_1, tau_2), where tau_2 is built on one more Wronskian
entry than tau_1, satisfies two bilinear identities; every tau here is a
`solitons.wronskian_tau` minor expansion.  Everything else in this module
flows from that coupling.  The pair carries exact potentials
u_i = 2 (log tau_i)_xx and the log-gradient v = dx log(tau_2/tau_1), the
first-order transforms  sign*dx + dx^{-1}dy - 2v  move linearized waves
between the levels (`transform_parts` lists their summands), and each
transform factors through a heat or flow operator conjugated by the tau
ratio.  Every identity here is checked in two independent ways wherever
the factorization offers one.

Each identity family is a builder that takes no sample points and no
selector: one call returns a dict of all its named part lists, the parts
of one identity summing to zero.
`identity_report` is the one place that reduces them, each to its worst
relative residual (`worst_residual`) on shared sample points.

The final section restricts the transforms to a single sech^2 channel on a
co-moving line and one transverse mode exp(i eta y), where dx^{-1}dy becomes
i eta dz^{-1} and they become  +/- d/dz + i eta dz^{-1} - 2 psi  with a tanh
kink psi; `OneDimDarboux.m_parts` is `transform_parts` on that mode.  Those
operators factor through cosh and sech conjugations and invert explicitly by
exponentially weighted kernels.  Each channel profile is a Rational in
e = exp(sqrt(c) z) over powers of the one base 1 + e^2, with z in the x slot,
so the exact transforms, their factorizations and the inverses' kernels are
built by the same algebra as the tau levels and no numerical antiderivative
enters any identity check.
"""
from __future__ import annotations

from functools import cache, cached_property, lru_cache
from operator import mul

import numpy as np

from .branches import Branch, _frequency, branch_of, check_sign
from .errors import (
    AlphaOutOfRange,
    CaseMismatch,
    ConfigMismatch,
    InadmissibleEta,
    InvalidBranch,
    MissingPrimitive,
    OrthogonalityViolation,
    RegionViolation,
    finite_real,
)
from .expsum import Carried, ExpSum, Rational, _worst_residual
from .jost import JostFamily, flow_parts, heat_parts, linearized_parts, pair_product
from .solitons import SolitonConfig, build_tau, potential, potential_yprim, wronskian_tau
from .tanhexp import PanelGrid, _whole, based_cumulative, exp_cumulative


# ----- sampling and residual plumbing -----


def sample_points(seed: int, n: int):
    """Reproducible (x, y, t) sample arrays centered on the interaction region.

    seed is a nonnegative and n a positive integer, else ConfigMismatch.
    """
    seed, n = _whole(seed, "sample seed"), _whole(n, "sample count")
    if seed < 0 or n < 1:
        raise ConfigMismatch(f"need seed >= 0 and at least one sample point; "
                             f"got seed={seed}, n={n}")
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(-s, s, n) for s in (2.2, 1.5, 0.8))


def _equation_parts(lhs: list, rhs: list) -> list:
    """Parts of lhs = rhs moved to one side, so that they sum to zero."""
    return lhs + [-1.0 * p for p in rhs]


# ----- bilinear pair coupling -----


def backlund_parts(tau1: ExpSum, tau2: ExpSum) -> dict[str, list[ExpSum]]:
    """Parts of the two bilinear coupling identities.

    "x" ties the y-flow of the pair to second x-derivatives, "t" ties the
    t-flow to third x-derivatives and the mixed xy terms.  A relative
    residual near machine epsilon certifies the coupling and one of order
    one refutes it.
    """
    t1x, t2x = tau1.dx(), tau2.dx()
    t1xx, t2xx = t1x.dx(), t2x.dx()
    xparts = [
        tau1 * t2xx,
        -2.0 * (t1x * t2x),
        tau2 * t1xx,
        tau2 * tau1.dy(),
        -1.0 * (tau1 * tau2.dy()),
    ]
    tparts = [
        4.0 * (tau1 * tau2.dt()),
        -4.0 * (tau2 * tau1.dt()),
        3.0 * (tau1 * t2x.dy()),
        -3.0 * (t1x * tau2.dy()),
        -3.0 * (tau1.dy() * t2x),
        3.0 * (tau2 * t1x.dy()),
        tau1 * t2xx.dx(),
        -3.0 * (t1x * t2xx),
        3.0 * (t1xx * t2x),
        -1.0 * (tau2 * t1xx.dx()),
    ]
    return {"x": xparts, "t": tparts}


@cache
def backlund_catalog() -> tuple[tuple[str, ExpSum, ExpSum], ...]:
    """Named coupled pairs spanning every supported tau shape.

    Includes the elementary line over the vacuum, irregular lower taus, the
    rank-degenerate reductions, both orderings of a shifted line, and the
    two four-phase types against their one-line partners.  Every tau is a
    `wronskian_tau` minor expansion: a one-column matrix for a lower level,
    two columns for an upper one.  The one lower level with mixed signs,
    three_phase_skew's e^{theta_1} - b e^{theta_3}, is the difference of two
    one-phase expansions.  The pairs are constants, built on the first call
    and kept.
    """
    a, b, c, d = 0.7, 1.3, 0.4, 0.9
    k2 = (-1.0, 0.5)
    k3 = (-1.0, 0.3, 2.0)
    k4 = (-2.0, -1.0, 0.5, 3.0)
    ko = (-2.0, -1.0, 1.0, 2.0)
    one = ExpSum.constant(1.0)

    pairs: list[tuple[str, ExpSum, ExpSum]] = []
    pairs.append(("line_over_vacuum", one,
                  build_tau(SolitonConfig("one_line", k2, pair=(1, 2)))))
    pairs.append(("three_term_over_vacuum", one, wronskian_tau(k3, [[1.0], [a], [b]])))

    t2_full = wronskian_tau(k4, [[1.0, 0.0], [0.0, 1.0], [-c, a], [-d, b]])
    pairs.append(("full_rank_pair", wronskian_tau(k4, [[0.0], [1.0], [a], [b]]), t2_full))
    pairs.append(("rank_pair_degenerate", wronskian_tau(k4, [[0.0], [1.0], [a], [0.0]]),
                  wronskian_tau(k4, [[0.0, -1.0], [1.0, 0.0], [a, 0.0], [0.0, d]])))

    t1_split = wronskian_tau(k4, [[0.0], [0.0], [1.0], [a]])
    t2_split0 = wronskian_tau(k4, [[1.0, 0.0], [b, 0.0], [0.0, 1.0], [0.0, a]])
    pairs.append(("split_pair_generic", t1_split,
                  wronskian_tau(k4, [[1.0, 0.0], [b, 0.0], [0.0, 1.0], [-c, a]])))
    pairs.append(("split_pair_wronskian", t1_split, t2_split0))
    pairs.append(("split_pair_other_partner", wronskian_tau(k4, [[1.0], [b], [0.0], [0.0]]),
                  t2_split0))

    t2_three = wronskian_tau(k3, [[1.0, 0.0], [0.0, 1.0], [-b, a]])
    skew = wronskian_tau(k3, [[1.0], [0.0], [0.0]]) - b * wronskian_tau(k3, [[0.0], [0.0], [1.0]])
    pairs.append(("three_phase_skew", skew, t2_three))
    pairs.append(("three_phase_mixed", wronskian_tau(k3, [[1.0], [b / a], [0.0]]), t2_three))

    t1_shift = wronskian_tau(k3, [[1.0], [a], [b]])
    pairs.append(("shifted_line_low", t1_shift,
                  wronskian_tau(k3, [[1.0, 1.0], [a, a], [0.0, b]])))
    pairs.append(("shifted_line_high", t1_shift,
                  wronskian_tau(k3, [[1.0, 0.0], [a, a], [b, b]])))

    # each two-line type over the line of a channel: P's inner one, both of O's
    for top, labels in ((SolitonConfig("p_type", k4), ("p_type_pair",)),
                        (SolitonConfig("o_type", ko), ("o_type_low", "o_type_high"))):
        for label, pair in zip(labels, top.channel_pairs()):
            pairs.append((label, build_tau(SolitonConfig("one_line", top.kappa, pair=pair)),
                          build_tau(top)))
    return tuple(pairs)


# ----- pair potentials -----


class MiuraData:
    """Exact potentials and log-gradients of a coupled tau pair.

    One instance describes one step between adjacent levels; tau1 may be
    None for the step up from the constant background.  The stored fields
    are all Rational objects sharing the pair's tau denominators:

    h, hinv      tau2/tau1 and its reciprocal
    v, vy, vt    dx, dy, dt of log(tau2/tau1); vy doubles as dx^{-1}dy v
    u1, u2       2 (log tau_i)_xx, the potentials of the two levels
    u1y, u2y     2 (log tau_i)_xy, the fixed dx^{-1}dy of each potential

    The quadratic map identities, the heat conjugations of the ratio, and
    the flow of v are meaningful when the pair satisfies the bilinear
    coupling; `invariant_parts` lists them all.
    """

    def __init__(self, tau1: ExpSum | None, tau2: ExpSum):
        self.tau1 = ExpSum.constant(1.0) if tau1 is None else tau1
        self.tau2 = tau2
        t1, t2 = self.tau1, self.tau2
        self.h = Rational.from_quotient(t2, t1)
        self.hinv = Rational.from_quotient(t1, t2)
        self.v = Rational.from_quotient(t2.dx(), t2) - Rational.from_quotient(t1.dx(), t1)
        self.vy = Rational.from_quotient(t2.dy(), t2) - Rational.from_quotient(t1.dy(), t1)
        self.vt = Rational.from_quotient(t2.dt(), t2) - Rational.from_quotient(t1.dt(), t1)
        self.u1 = potential(t1)
        self.u2 = potential(t2)
        self.u1y = potential_yprim(t1)
        self.u2y = potential_yprim(t2)

    @cached_property
    def base(self) -> "MiuraData":
        """The step (1, tau1) below this one."""
        return MiuraData(None, self.tau1)

    def invariant_parts(self) -> dict[str, list[Rational]]:
        """Parts of every pointwise identity the pair's potentials must satisfy.

        map_plus / map_minus     the quadratic maps send v to u2 and u1
        base_plus / base_minus   the same maps on the base step (1, tau1)
                                 send its log-gradient to u1 and zero
        heat_up / heat_down      the ratio and its inverse solve the two
                                 conjugated heat equations
        flow                     v solves the modified flow
        mixed_plus / mixed_minus the time-direction companion maps
        jump                     u2 - u1 = 2 v_x
        ydiff                    vy = (u1 + u2)/2 + v^2
        ratio_x/_xx/_xxx/_t      derivatives of the ratio in terms of the
                                 potentials, used by the conjugation routes
        """
        v, vy, vt = self.v, self.vy, self.vt
        u1, u2 = self.u1, self.u2
        h, hinv = self.h, self.hinv
        vsq = v * v
        base = self.base
        bsq = base.v * base.v
        return {
            "map_plus": [v.dx(), vy, -1.0 * vsq, -1.0 * u2],
            "map_minus": [-1.0 * v.dx(), vy, -1.0 * vsq, -1.0 * u1],
            "base_plus": [base.v.dx(), base.vy, -1.0 * bsq, -1.0 * base.u2],
            "base_minus": [-1.0 * base.v.dx(), base.vy, -1.0 * bsq],
            "heat_up": heat_parts(u1, h, star=False),
            "heat_down": heat_parts(u2, hinv, star=True),
            "flow": [4.0 * v.dt(), v.dx().dx().dx(), 3.0 * vy.dy(),
                     -6.0 * (vsq * v.dx()), 6.0 * (v.dx() * vy)],
            "mixed_plus": [3.0 * self.u2y, 4.0 * vt, v.dx().dx(), 6.0 * (u2 * v),
                           -3.0 * vy.dx(), -3.0 * vsq.dx(), 4.0 * (vsq * v)],
            "mixed_minus": [3.0 * self.u1y, 4.0 * vt, v.dx().dx(), 6.0 * (u1 * v),
                            3.0 * vy.dx(), 3.0 * vsq.dx(), 4.0 * (vsq * v)],
            "jump": [u2, -1.0 * u1, -2.0 * v.dx()],
            "ydiff": [vy, -0.5 * u1, -0.5 * u2, -1.0 * vsq],
            "ratio_x": [h.dx(), -1.0 * (v * h)],
            "ratio_xx": [h.dx().dx(), -1.0 * (h * vsq), -0.5 * (h * u2), 0.5 * (h * u1)],
            "ratio_xxx": [h.dx().dx().dx(), -1.0 * (h * (vsq * v)),
                          -1.5 * (h * (v * u2)), 1.5 * (h * (v * u1)),
                          -0.5 * (h * u2.dx()), 0.5 * (h * u1.dx())],
            "ratio_t": [4.0 * h.dt(), 2.0 * (h * u2.dx()), h * u1.dx(),
                        3.0 * (h * self.u1y), 6.0 * (h * (v * u2)),
                        4.0 * (h * (vsq * v))],
        }


# ----- first-order level transforms -----


def transform_parts(v: Rational, wave: Carried) -> dict[int, list[Rational]]:
    """Summands [sign dx wave, dx^{-1}dy wave, -2 v wave] of  sign*dx + dx^{-1}dy - 2v, by sign.

    The nonlocal term is the wave's carried dx^{-1}dy; a wave without one
    raises MissingPrimitive.  The formal adjoint is the transform with the
    opposite sign; the two lists share their last two summands.
    """
    if wave.ydxinv is None:
        raise MissingPrimitive("the level transform needs the wave's exact dx^{-1} dy")
    wx, lifted = wave.value.dx(), -2.0 * (v * wave.value)
    return {sign: [float(sign) * wx, wave.ydxinv, lifted] for sign in (1, -1)}


def carried_from_primitive(prim: Rational) -> Carried:
    """dx of `prim` bundled with the exact primitive data dx needs."""
    return Carried(prim.dx(), xprim=prim, ydxinv=prim.dy())


# ----- conjugation routes -----


def miura_lax_parts(data: MiuraData, wave: Carried) -> dict[str, list[Rational]]:
    """Parts of the eight conjugation routes, each in both of its forms.

    Routes 1..4 factor the transforms and companion maps of the pair's
    ratio through the heat and flow operators of the two levels; routes
    5..8 are routes 1..4 on the base pair (1, tau1), where the lower level
    is the constant background.  Each route has an undifferentiated form
    acting on the carried x-primitive ("route<n>_primitive") and a
    differentiated form acting on the wave itself ("route<n>_direct"); a
    pass of both certifies the operator identity and not a lucky
    cancellation.

    The input must carry an exact x-primitive; the odd routes also read its
    dy.  Routes 5..8 assume tau1 has a single Wronskian entry (or is
    constant), which makes its y-derivative equal its second x-derivative.
    """
    w = wave.value
    big_w = wave.prim()
    wx = w.dx()
    flow_w = [4.0 * big_w.dt(), 4.0 * wx.dx()]
    out: dict[str, list[Rational]] = {}
    for first, step in ((1, data), (5, data.base)):
        v, h, hinv = step.v, step.h, step.hinv
        u1, u2, u1y, u2y = step.u1, step.u2, step.u1y, step.u2y
        both = transform_parts(v, wave)
        vvw = 12.0 * (v * (v * w))
        # (lhs on the primitive, rhs of the primitive form, rhs of the direct form)
        routes = (
            (both[1], [h * p for p in heat_parts(u2, hinv * big_w, star=True)],
             [h * p for p in heat_parts(u1, hinv * w, star=True)]),
            (both[-1], [-1.0 * (hinv * p) for p in heat_parts(u1, h * big_w, star=False)],
             [-1.0 * (hinv * p) for p in heat_parts(u2, h * w, star=False)]),
            ([*flow_w, 6.0 * (u1 * w), -12.0 * (v * wx), vvw],
             [-1.0 * (h * p) for p in flow_parts(u2, u2y, hinv * big_w, star=True)],
             [-1.0 * (h * p) for p in flow_parts(u1, u1y, hinv * w, star=True)]),
            ([*flow_w, 6.0 * (u2 * w), 12.0 * (v * wx), vvw],
             [hinv * p for p in flow_parts(u1, u1y, h * big_w, star=False)],
             [hinv * p for p in flow_parts(u2, u2y, h * w, star=False)]),
        )
        for n, (lhs, rhs_a, rhs_b) in enumerate(routes, start=first):
            out[f"route{n}_primitive"] = _equation_parts(lhs, rhs_a)
            out[f"route{n}_direct"] = _equation_parts([p.dx() for p in lhs], rhs_b)
    return out


# ----- linearized flow intertwining -----


def flow_intertwining_parts(data: MiuraData, wave: Carried) -> dict[str, list[Rational]]:
    """Each transform intertwines the linearized flows of its two levels.

    Stated in x-differentiated form, which keeps every term local: with F
    the transformed wave and G the linearized modified flow of the wave, dx
    applied to the linearized flow of the target level acting on F must
    equal dx of the transform acting on G.  "plus" lands on level u_2,
    "minus" on u_1; both share one G.
    """
    v = data.v
    both = transform_parts(v, wave)
    wv, ydx = wave.value, wave.ydxinv
    g = (4.0 * wv.dt() + wv.dx().dx().dx() + 3.0 * ydx.dy()
         - 6.0 * ((v * (v * wv)).dx()) + 6.0 * (v.dx() * ydx)
         + 6.0 * (wv.dx() * data.vy))
    out: dict[str, list[Rational]] = {}
    for sign, name, u in ((1, "plus", data.u2), (-1, "minus", data.u1)):
        a, b, c = both[sign]
        lhs = linearized_parts(u, a + b + c)
        rhs = [float(sign) * g.dx().dx(), g.dy(), -2.0 * ((v * g).dx())]
        out[name] = _equation_parts(lhs, rhs)
    return out


# ----- level maps on wave-dual products -----


# the report reads two configurations (P and O type); a sweep over phase
# speeds keeps only the last two chains and the waves their families keep
@lru_cache(maxsize=2)
def _level_steps(config: SolitonConfig) -> tuple[tuple[str, JostFamily, JostFamily, MiuraData], ...]:
    """(label, lower family, upper family, MiuraData) for each adjacent step.

    The chain of two nested lines climbs vacuum -> inner line -> both
    lines and lists its top step first, labelled "two" and "one"; two
    lines side by side reach the two-line level from the line of each
    channel (i, j), labelled "ch{i}{j}".  A configuration without two
    lines has no chain and raises ConfigMismatch.  Each chain is built once
    per configuration and shared by every family that reads it.
    """
    pairs = config.channel_pairs()
    if len(pairs) != 2:
        raise ConfigMismatch(f"level chains need two lines, got {config.kind} with {len(pairs)}")
    top = JostFamily(config)
    if not config.nested():
        steps = []
        for i, j in pairs:
            line = JostFamily(SolitonConfig("one_line", config.kappa, pair=(i, j)))
            steps.append((f"ch{i}{j}", line, top, MiuraData(line.tau, top.tau)))
        return tuple(steps)
    line = JostFamily(SolitonConfig("one_line", config.kappa, pair=pairs[0]))
    vacuum = JostFamily(SolitonConfig("vacuum", ()))
    upper = MiuraData(line.tau, top.tau)
    return (("two", line, top, upper), ("one", vacuum, line, upper.base))


def darboux_map_parts(config: SolitonConfig, beta: complex,
                      beta_prime: complex) -> dict[str, list[Rational]]:
    """Parts of the level maps on products of waves with duals.

    The "raise" identities: the plus transform of a level sends the
    x-derivative of a mixed product one level up, and the adjoint of the
    minus transform does the same on single-level products.  The "lower"
    identities move them back down; with them come the two kernel
    statements on discrete-residue products and the discrete relations at
    the resonant phases.

    A dual within 1e-9 of a discrete phase raises PoleAtKappa where
    `JostFamily` builds it: the dual at beta_prime always, and the dual at
    beta on a chain of nested lines, whose residue identities take it.
    Lines side by side build only waves at beta, which have no pole there.
    Every adjacent step of the `_level_steps` chain (vacuum -> inner line
    -> both lines when nested, else the line of each channel -> both
    lines) gets the mixed and wave maps.  The residue identities are
    checked on nested lines only, at the first phase of each line: i of
    the inner line (i, j) and i' of the outer (i', j').  Keys name the
    identity by what it moves, the step label first when nested and last
    when side by side.
    """
    # the families keep their waves; each product is built once per call
    product, times = cache(pair_product), cache(mul)
    steps = _level_steps(config)
    (inner, _), (outer, _) = config.channel_pairs()
    mixed = {label: transform_parts(data.v, carried_from_primitive(
        lo.phi(beta) * hi.phi_star(beta_prime))) for label, lo, hi, data in steps}
    out: dict[str, list[Rational]] = {}
    for sign, verb in ((1, "raise"), (-1, "lower")):

        def key(label: str, what: str) -> str:
            return f"{verb}_{label}_{what}" if config.nested() else f"{verb}_{what}_{label}"

        ops = {}
        for label, lo, hi, data in steps:
            # the transform acts on products of src and lands on products of dst
            src, dst = (lo, hi) if sign == 1 else (hi, lo)
            ops[label] = (lo, hi, data.v, src)
            out[key(label, "mixed")] = _equation_parts(
                mixed[label][sign],
                [2.0 * product(dst.phi(beta), dst.phi_star(beta_prime)).value.dx()])
            out[key(label, "wave")] = _equation_parts(
                [p.dx() for p in transform_parts(data.v, product(
                    src.phi(beta), src.phi_star(beta_prime)))[sign]],
                [2.0 * times(hi.phi(beta), lo.phi_star(beta_prime)).dx()])
        if not config.nested():
            continue

        def dual_residue(label: str, j: int, kernel: bool = False) -> list[Rational]:
            lo, hi, v, src = ops[label]
            rhs = [] if kernel else [2.0 * times(hi.phi(beta), lo.phi_star_residue(j))]
            return _equation_parts(transform_parts(
                v, product(src.phi(beta), src.phi_star_residue(j)))[sign], rhs)

        def wave_residue(label: str, j: int) -> list[Rational]:
            lo, hi, v, src = ops[label]
            return _equation_parts(
                transform_parts(v, product(src.phi_residue(j), src.phi_star(beta)))[sign],
                [2.0 * times(hi.phi_residue(j), lo.phi_star(beta))])

        out[f"{verb}_two_discrete_dual"] = dual_residue("two", inner)
        out[f"{verb}_two_discrete_wave"] = wave_residue("two", inner)
        if sign == -1:
            out["lower_two_discrete_wave_outer"] = wave_residue("two", outer)
            out["lower_one_discrete_wave"] = wave_residue("one", inner)
            out["kernel_two"] = dual_residue("two", outer, kernel=True)
            out["kernel_one"] = dual_residue("one", inner, kernel=True)
    return out


# ----- level shifts of single waves -----


def level_shift_parts(config: SolitonConfig, beta: complex) -> dict[str, list[Rational]]:
    """A tau-ratio conjugation turns dx into a one-level shift of the wave.

    For each adjacent level pair: dx of ratio^{-1} times the lower wave is
    ratio^{-1} times the upper wave, dx of ratio times the upper dual is
    minus ratio times the lower dual, and applying the free heat operator
    (or its adjoint) instead of dx lands on the x-derivative of the shifted
    wave, doubled.  A chain of nested lines reports both of its steps,
    lines side by side one step per channel.  The duals are built at beta,
    so a beta within 1e-9 of a discrete phase raises PoleAtKappa from
    `JostFamily`.
    """
    out: dict[str, list[Rational]] = {}
    for label, lo, hi, data in _level_steps(config):
        h, hinv = data.h, data.hinv
        wave_lo, wave_hi = lo.phi(beta), hi.phi(beta)
        dual_lo, dual_hi = lo.phi_star(beta), hi.phi_star(beta)
        wave_lifted = hinv * wave_lo
        dual_lifted = h * dual_hi
        out["wave_step_" + label] = _equation_parts([wave_lifted.dx()], [hinv * wave_hi])
        out["dual_step_" + label] = _equation_parts([dual_lifted.dx()], [-1.0 * (h * dual_lo)])
        out["wave_heat_" + label] = _equation_parts(
            heat_parts(None, wave_lifted, star=True), [2.0 * (hinv * wave_hi.dx())])
        out["dual_heat_" + label] = _equation_parts(
            heat_parts(None, dual_lifted, star=False), [-2.0 * (h * dual_lo.dx())])
    return out


# ----- resonant products on channel branches -----


def mode_transfer_parts(config: SolitonConfig, eta: complex) -> dict[str, list[Rational]]:
    """Parts of the kernel, eigenvalue and transfer identities of the branch products.

    The resonant generators are scaled wave-dual products taken at the
    branch points beta = a_ij +/- gamma_ij(eta) of a channel, paired with
    the discrete residues of that channel.  On its own channel the plus
    generator is killed by the minus transform and is an eigenfunction of
    the plus transform with eigenvalue 2 dx; across levels the off-channel
    generators transfer: the minus transform of the upper product equals
    the plus transform of the lower one, and the adjoint statements hold
    for the dual generators.  Only the chain of two nested lines supports
    all of these at once: the generators live on the branches of the inner
    line (i, j) and the outer line (i', j'), with the residues at phases i
    and i' and the gaps kappa_j - kappa_i and kappa_j' - kappa_i'.  Lines
    side by side raise CaseMismatch; an eta that is not a finite number
    raises InadmissibleEta.
    """
    if not config.nested():
        raise CaseMismatch(f"resonant transfer checks need two nested lines, got {config.kind}")
    eta = _frequency(eta)
    k = config.kappa
    etac = complex(np.conj(eta))
    (_, fam1, fam2, upper), (_, _, _, lower) = _level_steps(config)
    v1, v2 = lower.v, upper.v

    (i_in, j_in), (i_out, j_out) = config.channel_pairs()
    br_in = branch_of(config, (i_in, j_in))
    br_out = branch_of(config, (i_out, j_out))
    gap_in = k[j_in - 1] - k[i_in - 1]
    gap_out = k[j_out - 1] - k[i_out - 1]

    def generator(fam: JostFamily, br: Branch, eta_at: complex, side: int, j: int,
                  scale: complex, wave_at_branch: bool) -> Carried:
        """scale times the product of the wave (or dual) at br.beta(eta_at, side)
        with the j-th dual residue (or wave residue)."""
        b = br.beta(eta_at, side)
        if wave_at_branch:
            prod = pair_product(fam.phi(b), fam.phi_star_residue(j))
        else:
            prod = pair_product(fam.phi_residue(j), fam.phi_star(b))
        return Carried(prod.value * scale, ydxinv=prod.ydxinv * scale)

    plus_in = gap_in / br_in.gamma(eta)
    minus_in = 1j * eta * (-1.0 / br_in.gamma(-eta))
    dual_in = -1j * etac / gap_in
    w_in_1 = generator(fam1, br_in, eta, -1, i_in, plus_in, True)
    w_in_2 = generator(fam2, br_in, eta, -1, i_in, plus_in, True)
    w_out_2 = generator(fam2, br_out, eta, -1, i_out, gap_out / br_out.gamma(eta), True)
    wm_in_1 = generator(fam1, br_in, -eta, 1, i_in, minus_in, False)
    wm_in_2 = generator(fam2, br_in, -eta, 1, i_in, minus_in, False)
    d_in_1 = generator(fam1, br_in, -etac, -1, i_in, dual_in, False)
    d_in_2 = generator(fam2, br_in, -etac, -1, i_in, dual_in, False)
    dm_in_1 = generator(fam1, br_in, etac, 1, i_in, 1.0, True)
    dm_in_2 = generator(fam2, br_in, etac, 1, i_in, 1.0, True)
    dm_out_2 = generator(fam2, br_out, etac, 1, i_out, -1.0, True)

    def transfer(lower_wave: Carried, upper_wave: Carried) -> list[Rational]:
        """Minus transform of the upper-level product against plus of the lower-level one."""
        return _equation_parts(transform_parts(v2, upper_wave)[-1],
                               transform_parts(v2, lower_wave)[1])

    on_one, on_two = transform_parts(v1, w_in_1), transform_parts(v2, w_out_2)
    return {
        "kernel_one": on_one[-1],
        "kernel_two": on_two[-1],
        "dual_kernel_one": transform_parts(v1, dm_in_1)[-1],
        "dual_kernel_two": transform_parts(v2, dm_out_2)[-1],
        "eigen_one": _equation_parts(on_one[1], [2.0 * w_in_1.value.dx()]),
        "eigen_two": _equation_parts(on_two[1], [2.0 * w_out_2.value.dx()]),
        "transfer_plus": transfer(w_in_1, w_in_2),
        "transfer_minus": transfer(wm_in_1, wm_in_2),
        "dual_transfer_plus": transfer(d_in_1, d_in_2),
        "dual_transfer_minus": transfer(dm_in_1, dm_in_2),
    }


# ----- one-dimensional channel transforms -----


def _channel_root(c: float) -> float:
    """sqrt(c) of a channel with a real gap c > 0; InvalidBranch otherwise."""
    if not (finite_real(c) and c > 0):
        raise InvalidBranch(f"channel gap c must be positive and finite, got {c!r}")
    return float(np.sqrt(float(c)))


def _channel_gamma(branch: Branch, eta: complex) -> complex:
    """The branch root gamma(eta); InadmissibleEta at the branch point
    |gamma| <= 1e-9 (eta = i c), where the channel kernels divide by gamma."""
    gam = branch.gamma(eta)
    if abs(gam) <= 1e-9:
        raise InadmissibleEta(
            f"eta = {eta} sits at the branch point: |gamma| = {abs(gam):.3e}")
    return gam


# a sweep over channel gaps keeps the profiles of its last 64 rates; one
# kink and one bump per rate, so a sweep over (eta, alpha) feeds the same
# objects, and so the same node values, to every operator
@lru_cache(maxsize=64)
def _hyperbolic(root: float) -> tuple[Rational, Rational, ExpSum, Rational, Carried]:
    """(tanh, sech, cosh, kink, bump) of root z as functions of (x, y, t) = (z, 0, 0).

    With e = exp(root z) the first three are (e^2 - 1)/(1 + e^2), 2e/(1 + e^2)
    and (e + 1/e)/2; the kink is root tanh and the bump sech^2 with its
    antiderivative (tanh - 1)/root.  Both quotients hold the same base
    1 + e^2, so their products merge its powers and every profile of the
    rate shares it.
    """
    gen = (complex(root), 0j, 0j)
    e = ExpSum.exponential(1.0, gen)
    base = e * e + 1.0
    tanh, sech = Rational.from_quotient(e * e - 1.0, base), Rational.from_quotient(2.0 * e, base)
    return (tanh, sech, ExpSum((gen,), {(1,): 0.5, (-1,): 0.5}), root * tanh,
            Carried(sech * sech, xprim=(tanh - 1.0) / root))


def _exp_line(rate: complex) -> ExpSum:
    """exp(rate z) with z in the x slot."""
    return ExpSum.exponential(1.0, (complex(rate), 0j, 0j))


def kink_profile(c: float) -> Rational:
    """psi = sqrt(c) tanh(sqrt(c) z), the kink the line transforms subtract."""
    return _hyperbolic(_channel_root(c))[3]


def bump_profile(c: float) -> Carried:
    """sech^2(sqrt(c) z) with its exact decaying antiderivative."""
    return _hyperbolic(_channel_root(c))[4]


def minus_kernel_profile(c: float, eta: complex, reflected: bool = False) -> Carried:
    """The decaying kernel generator of the minus transform, or its mirror.

    The generator is d/dz of exp(-gamma z) sech(sqrt(c) z) up to a constant.
    Its mirror image is again a kernel element, but its antiderivative only
    decays on the right when Re gamma < sqrt(c), so outside that strip the
    mirror is rejected rather than silently carrying a growing primitive.
    """
    root = _channel_root(c)
    gam = _channel_gamma(Branch(a=0.0, c=float(c)), _frequency(eta))
    sech = _hyperbolic(root)[1]
    if not reflected:
        return carried_from_primitive((root / gam) * (sech * _exp_line(-gam)))
    if gam.real >= root - 1e-12:
        raise InadmissibleEta(
            f"mirrored kernel needs Re gamma < sqrt(c); got {gam.real:.6f} vs {root:.6f}")
    return carried_from_primitive((-root / gam) * (sech * _exp_line(gam)))


# one grid per window, whatever the gap: the last 16 windows
@lru_cache(maxsize=16)
def _window_grid(window: int) -> PanelGrid:
    """The panel grid on [-window, window]."""
    return PanelGrid(-window, window)


def _check_finite(vals: np.ndarray, what: str) -> None:
    if not np.isfinite(vals).all():
        raise ConfigMismatch(f"{what} is not finite at every grid node")


# the node values of every exact profile on one window's grid, whether an
# operator's own psi, sech and cosh or an input: keyed by the profile object
# (a Rational or ExpSum compares by identity), the last 16
@lru_cache(maxsize=16)
def _profile_nodes(profile: Rational | ExpSum, window: int) -> np.ndarray:
    """The read-only values of profile at the window's grid nodes;
    ConfigMismatch where one is not finite."""
    vals = profile.eval(_window_grid(window).z, 0.0, 0.0)
    _check_finite(vals, "profile")
    vals.flags.writeable = False
    return vals


class OneDimDarboux:
    """The channel transforms +/- d/dz + i eta dz^{-1} - 2 psi on a window.

    These are the level transforms of `transform_parts` with v = psi on one
    transverse mode exp(i eta y), where dx^{-1}dy acts as i eta dz^{-1}.
    c is the channel's quarter squared gap, eta the transverse frequency
    (real or complex), alpha the exponential weight the inverses work in.
    The window is a symmetric integer half-width in z of at least 2, so
    that the interior `t1_roundtrip` reads is not empty, else ConfigMismatch;
    the default makes the sech envelope fall below 1e-13 at the edges.  Exact applications
    act on Rational profiles in z = x, evaluated at (z, 0, 0); sampled
    applications and the integral inverses live on the panel grid.  The grid
    is the window's one `_window_grid`.  `_profile_nodes` keeps the node
    values of every exact profile, the gap's one psi, sech and cosh and the
    inputs, per (profile object, window), so every operator at one (c,
    window) shares them, whatever its eta and alpha.  An input is a Rational
    or ExpSum profile, bare or carried, or node samples, which must be
    numeric and finite, else ConfigMismatch.  eta must be a finite number,
    else InadmissibleEta, and alpha a finite nonnegative real, else
    AlphaOutOfRange; neither is read from a string or a bool.
    """

    def __init__(self, c: float, eta: complex, alpha: float = 0.0,
                 window: int | None = None):
        self.root = _channel_root(c)
        self.eta = _frequency(eta)
        if not (finite_real(alpha) and alpha >= 0):
            raise AlphaOutOfRange(f"weight rate must be finite and nonnegative, got {alpha}")
        self.c = float(c)
        self.alpha = float(alpha)
        self.branch = Branch(a=0.0, c=self.c)
        if window is None:
            window = int(np.clip(np.ceil(38.0 / self.root), 12, 160))
        self.window = _whole(window, "channel window")
        if self.window < 2:
            raise ConfigMismatch(f"channel window must be at least 2, got {window}")
        self.grid = _window_grid(self.window)
        self.psi = kink_profile(self.c)

    @cached_property
    def node_profiles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(psi, sech, cosh) at the grid nodes, shared and read-only."""
        sech, cosh = _hyperbolic(self.root)[1:3]
        return tuple(map(self._on_grid, (self.psi, sech, cosh)))

    def m_parts(self, sign: int, f: Carried) -> list[Rational]:
        """Summands of the exact transform: `transform_parts` at v = psi, whose
        dx^{-1} dy is i eta times the profile's antiderivative."""
        check_sign(sign)
        wave = Carried(f.value, ydxinv=(1j * self.eta) * f.prim())
        return transform_parts(self.psi, wave)[sign]

    def m_apply(self, sign: int, f: Carried) -> Rational:
        a, b, c = self.m_parts(sign, f)
        return a + b + c

    def m_apply_sampled(self, sign: int, vals: np.ndarray) -> np.ndarray:
        """Transform of node samples via panel calculus, decaying primitive."""
        check_sign(sign)
        vals = self._on_grid(vals)
        g = self.grid
        return (float(sign) * g.derivative(vals)
                + 1j * self.eta * g.antiderivative(vals)
                - 2.0 * self.node_profiles[0] * vals)

    def _on_grid(self, f) -> np.ndarray:
        """Node values of a carried or bare Rational or ExpSum profile, shared and
        read-only, or checked samples; ConfigMismatch where either is not
        finite or the samples are not numeric."""
        if isinstance(f, Carried):
            f = f.value
        if isinstance(f, (Rational, ExpSum)):
            return _profile_nodes(f, self.window)
        vals = self.grid._panels(f).ravel()
        _check_finite(vals, "sampled input")
        return vals


def factorization_parts(c: float, eta: complex, f: Carried) -> dict[str, list[Rational]]:
    """Both channel transforms factor through cosh and sech conjugations.

    plus_direct      d/dz of the plus transform equals cosh (dz^2 - g^2) sech
    plus_primitive   the plus transform equals cosh (dz^2 + u - g^2) sech of
                     the antiderivative, with u the sech^2 potential
    minus_primitive  the minus transform equals sech (g^2 - dz^2) cosh of
                     the antiderivative
    minus_direct     d/dz of the minus transform equals sech (g^2 - dz^2 - u) cosh

    Here g is the branch root at -eta for plus and at +eta for minus.  All
    four are exact identities of the Rational algebra.
    """
    op = OneDimDarboux(c, eta)
    gp, gm = op.branch.gamma(eta), op.branch.gamma(-eta)
    sech, cosh = _hyperbolic(op.root)[1:3]
    u1 = (2.0 * c) * bump_profile(c).value
    fv, fp = f.value, f.prim()
    plus, minus = op.m_apply(1, f), op.m_apply(-1, f)

    inner = sech * fv
    inner_p = sech * fp
    couter = cosh * fv
    couter_p = cosh * fp
    checks = {
        "plus_direct": (plus.dx(), cosh * (inner.dx().dx() - (gm * gm) * inner)),
        "plus_primitive": (plus, cosh * (inner_p.dx().dx() + u1 * inner_p
                                         - (gm * gm) * inner_p)),
        "minus_primitive": (minus, sech * ((gp * gp) * couter_p - couter_p.dx().dx())),
        "minus_direct": (minus.dx(), sech * ((gp * gp) * couter - couter.dx().dx()
                                             - u1 * couter)),
    }
    return {name: _equation_parts([lhs], [rhs]) for name, (lhs, rhs) in checks.items()}


def commutation_parts(c: float, eta: complex, drift: float,
                      f: Carried) -> dict[str, list[Rational]]:
    """The transforms intertwine the channel evolution generators.

    With G the transformed profile and H the modified generator applied to
    the profile, d/dz of the dressed generator on G must equal d/dz of the
    transform on H; "plus" dresses with the sech^2 potential, "minus" is
    free.  The drift coefficient enters both generators identically, so the
    identity holds for any finite value, else ConfigMismatch; passing the
    channel's frame drift keeps the magnitudes representative.
    """
    op = OneDimDarboux(c, eta)
    if not finite_real(drift):
        raise ConfigMismatch(f"drift coefficient must be finite, got {drift}")
    eta, psi = op.eta, op.psi
    u1 = (2.0 * c) * bump_profile(c).value
    fv, fp = f.value, f.prim()
    c4 = 4.0 * c

    # modified generator: free part minus (3/4)(u f)' minus (3/4) i eta u F
    free_f = (-0.25) * (fv.dx().dx() - c4 * fv).dx() + (1j * drift * eta) * fv \
        + (0.75 * eta * eta) * fp
    h = free_f - 0.75 * (u1 * fv).dx() - (0.75j * eta) * (u1 * fp)

    g_plus, g_minus = op.m_apply(1, f), op.m_apply(-1, f)

    def dressed(g: Rational, with_u: bool) -> Rational:
        core = g.dx().dx() - c4 * g
        if with_u:
            core = core + 6.0 * (u1 * g)
        return (-0.25) * core.dx().dx() + (1j * drift * eta) * g.dx() \
            + (0.75 * eta * eta) * g

    lhs_plus = dressed(g_plus, True)
    rhs_plus = h.dx().dx() + (1j * eta) * h - 2.0 * (psi * h).dx()
    lhs_minus = dressed(g_minus, False)
    rhs_minus = -1.0 * h.dx().dx() + (1j * eta) * h - 2.0 * (psi * h).dx()

    return {"plus": _equation_parts([lhs_plus], [rhs_plus]),
            "minus": _equation_parts([lhs_minus], [rhs_minus])}


def _tail(grid: PanelGrid, g: np.ndarray, q: complex, side: str) -> np.ndarray:
    """exp_cumulative of g on one side, once |g| e^{Re(q) z} sits ~1e-12 below
    its peak at that side's window edge; else the window truncates real mass.
    The log mass is built in one array; a NaN or inf in g makes its peak not
    finite, which raises ConfigMismatch."""
    logmass = np.abs(g)
    logmass += 1e-300
    np.log(logmass, out=logmass)
    logmass += q.real * grid.z
    peak = logmass.max()
    if not np.isfinite(peak):
        raise ConfigMismatch(f"{side} tail integrand is not finite on the grid")
    edge = logmass[:3].max() if side == "left" else logmass[-3:].max()
    if edge > peak - 27.6:
        raise RegionViolation(
            f"{side} tail integrand has not decayed at the {side} window edge; "
            "widen the window or revisit alpha")
    return exp_cumulative(grid, g, q, side)


def t1_apply(op: OneDimDarboux, sign: int, f, low: bool = False) -> np.ndarray:
    """Integral inverse of the channel transform of the given sign.

    In the high-frequency region both kernel tails decay inside the weighted
    space and the two-sided form applies.  Below the channel threshold pass
    low=True: the minus inverse reroutes its left tail through a based
    integral at the origin and always solves; the plus inverse swaps its
    left tail onto a growing branch, which is only consistent when the input
    is orthogonal to the span of the adjoint kernel, so the secular pairing
    is measured and a violation is raised at 1e-6 relative size.

    One rule gates the frequency region of both signs.  With gamma the
    branch root at -eta for plus and at +eta for minus, the branch point
    |gamma| <= 1e-9, where both forms divide by 2 gamma, raises
    InadmissibleEta.  With margin = Re gamma - (sqrt(c) + alpha), the
    two-sided form needs margin > 1e-9 and the low form margin < -1e-9;
    otherwise RegionViolation names the form, the sign, the margin and the
    fix.  The based minus form also needs Re gamma > sqrt(c) - alpha.  Every
    semi-infinite integral additionally checks that its weighted integrand
    has decayed at the open window edge.  Passing these gates does not bound
    the error; `t1_roundtrip` measures it.  Returns node values on the
    operator grid.
    """
    check_sign(sign)
    if not 0.0 < op.alpha < 2.0 * op.root:
        raise AlphaOutOfRange(
            f"inverses need 0 < alpha < 2 sqrt(c); got alpha={op.alpha}, c={op.c}")
    grid = op.grid
    z = grid.z
    fvals = op._on_grid(f)
    root, alpha = op.root, op.alpha
    gam = _channel_gamma(op.branch, -op.eta if sign == 1 else op.eta)
    margin = gam.real - (root + alpha)

    if abs(margin) <= 1e-9 or low != (margin < 0):
        form, sense, fix = ("low", "<", "drop") if low else ("two-sided", ">", "use")
        raise RegionViolation(
            f"{form} {'plus' if sign == 1 else 'minus'} inverse needs Re gamma {sense} "
            f"sqrt(c)+alpha; margin {margin:.3e}; {fix} low=True")

    stv, sechv, coshv = op.node_profiles

    if sign == -1:
        if low and gam.real <= root - alpha + 1e-9:
            raise RegionViolation(
                "based minus inverse needs Re gamma > sqrt(c)-alpha; "
                f"got Re gamma {gam.real:.6f}")
        gvals = np.asarray(coshv * fvals, dtype=complex)  # once, for both tails
        right = _tail(grid, gvals, -gam, "right")
        if low:
            left = based_cumulative(grid, gvals, gam)
        else:
            left = _tail(grid, gvals, gam, "left")
        return ((-gam - stv) * sechv * left + (gam - stv) * sechv * right) / (2.0 * gam)

    # plus inverse
    g_right = (-gam - stv) * sechv * fvals
    g_left = (gam - stv) * sechv * fvals
    right = _tail(grid, g_right, -gam, "right")
    if not low:
        left = _tail(grid, g_left, gam, "left")
        return coshv * (left + right) / (2.0 * gam)

    # low plus: secular compatibility of the two growth branches
    # the adjoint kernel (gamma - sqrt(c) tanh) sech e^{gamma z} / 2 at the nodes
    secv = 0.5 * (gam - stv) * sechv * np.exp(gam * z)
    pairing = grid.integral(secv * fvals)
    pairing_scale = grid.integral(np.abs(secv) * np.abs(fvals)).real
    if abs(pairing) > 1e-6 * max(pairing_scale, 1e-300):
        raise OrthogonalityViolation(
            f"secular pairing {abs(pairing):.3e} exceeds 1e-6 of scale "
            f"{pairing_scale:.3e}; the low plus inverse does not apply")
    left = _tail(grid, g_left, gam, "left")
    grown = _tail(grid, g_left, gam, "right")
    piece = np.where(z < 0.0, left, -grown)
    return coshv * (right + piece) / (2.0 * gam)


def t1_roundtrip(op: OneDimDarboux, sign: int, f, low: bool = False) -> float:
    """Apply the inverse then the transform; worst interior relative error.

    The achievable error is set by the window truncating the inverse's slow
    tail, which decays at rate Re gamma - sqrt(c); widen the operator window
    when that rate is small.  Measured on random admissible channels with a
    sech^2 input: the two-sided plus error is about 0.7 to 1.5 times
    exp(-(Re gamma(-eta) - sqrt(c)) window) down to a floor near 1e-13, and
    the low minus error grows as 1e-14 to 1e-12 times
    exp((Re gamma(eta) - sqrt(c)) window).
    No gate of `t1_apply` catches either, so read this error, not the gates.
    The interior |z| <= window - 1.5 is a slice of the ascending grid.
    """
    fvals = op._on_grid(f)
    v = t1_apply(op, sign, f, low=low)
    back = op.m_apply_sampled(sign, v)
    z, edge = op.grid.z, op.window - 1.5
    inner = slice(np.searchsorted(z, -edge, "left"), np.searchsorted(z, edge, "right"))
    # against sup |f|: a pointwise scale would inflate truncation error in the tails
    scale = max(float(np.max(np.abs(fvals))), 1e-300)
    return float(np.abs(back[inner] - fvals[inner]).max() / scale)


# ----- aggregate report -----


# The report's spectral points, channel frequency and phase speeds.
REPORT_BETA = 1.7
REPORT_BETA_PRIME = 0.4
REPORT_ETA = 0.4
REPORT_KAPPA_P = (-2.0, -1.0, 0.5, 3.0)
REPORT_KAPPA_O = (-2.0, -1.0, 1.0, 2.0)


def identity_report(seed: int = 7, npts: int = 16) -> dict[str, float]:
    """Every product map, level shift, transfer and coupling residual at once.

    The flat key set is stable, so the report can be serialized and diffed;
    all values are worst relative residuals over the shared sample points.
    Each family's parts are reduced as soon as they are built, so only one
    family's algebra is alive at a time.  The `JostFamily` objects of the
    shared level chains keep the last 64 waves, duals and residues each
    builds, and a report reads at most 13 per family, so a later report
    builds none of them again; each product of them lasts one family call,
    and `worst_residual` evaluates each distinct sum of an identity once.
    A sum or Rational keeps its own partials on the object.  Besides those,
    only the catalog of `backlund_catalog` and the bounded memo of sorted
    arrays by sum content (which every evaluation of a sum reads, so the
    sums a family builds again each report reuse the arrays of the last
    one) are kept from one call to the next, and the scaled pairs of the
    den bases (the taus) only for the current report: each is evaluated
    once at its sample points, then shared by all its identities.
    """
    x, y, t = sample_points(seed, npts)
    cfg_p = SolitonConfig("p_type", REPORT_KAPPA_P)
    cfg_o = SolitonConfig("o_type", REPORT_KAPPA_O)
    out: dict[str, float] = {}
    bases: dict[ExpSum, tuple] = {}  # den base -> its scaled pair at (x, y, t)

    def record(prefix: str, family: dict[str, list]) -> None:
        for name, parts in family.items():
            out[prefix + name] = _worst_residual(parts, (x, y, t), bases)

    record("p_", darboux_map_parts(cfg_p, REPORT_BETA, REPORT_BETA_PRIME))
    record("o_", darboux_map_parts(cfg_o, REPORT_BETA, REPORT_BETA_PRIME))
    record("p_shift_", level_shift_parts(cfg_p, REPORT_BETA))
    record("o_shift_", level_shift_parts(cfg_o, REPORT_BETA))
    record("p_branch_", mode_transfer_parts(cfg_p, REPORT_ETA))
    for name, tau1, tau2 in backlund_catalog():
        record(f"pair_{name}_", backlund_parts(tau1, tau2))
    return out
