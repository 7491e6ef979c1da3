"""Line-soliton tau functions, frames, fields and far-field profiles.

Every tau in the package is built here, by `wronskian_tau`: a sum of
Vandermonde-weighted minors of a coefficient matrix times exponentials of
theta_m = kappa_m x + kappa_m^2 y - kappa_m^3 t, whose generator
(kappa_m, kappa_m^2, -kappa_m^3) is the `plane_gen` that also gives the
Jost waves their plane factor.  The field is u = 2 (log tau)_xx.

A configuration is a matching of phases into lines, one row of
`MATCHINGS` per kind: the vacuum is the empty matching, the P type nests
the line (2, 3) inside (1, 4), and the O type sets (1, 2) beside (3, 4);
a single line soliton on any phase pair (i, j) is the matching of that
one line.  The line (i, j, s) is the column s e_i + e_j of the coefficient
matrix, and its pair (i, j) is a channel of the configuration.  A
far-field line of `asymptotic_profile` is a tau too: one column, whose
row scale is the line's local phase shift.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.typing import ArrayLike

from .branches import Branch, branch_of, check_sign
from .errors import DegenerateFrame, InvalidBranch, RejectedConfig, finite_real, phase_pair
from .expsum import ExpSum, Gen, Rational, log_derivatives, sum_residual

# the lines (i, j, s) of each kind, in channel order; one_line is ((i, j, +1),)
MATCHINGS = {"vacuum": (), "p_type": ((2, 3, +1), (1, 4, -1)), "o_type": ((1, 2, +1), (3, 4, +1))}


def plane_gen(w: complex) -> Gen:
    """Phase generator (w, w^2, -w^3) of the plane factor at spectral point w."""
    w = complex(w)
    return (w, w * w, -(w * w * w))


def theta_gens(kappa: tuple[float, ...]) -> tuple[Gen, ...]:
    """The phase generators of tau, one `plane_gen` per phase speed."""
    return tuple(map(plane_gen, kappa))


def _vandermonde(vals: tuple[float, ...]) -> float:
    out = 1.0
    for s in range(len(vals)):
        for r in range(s + 1, len(vals)):
            out *= vals[r] - vals[s]
    return out


def wronskian_tau(kappa: tuple[float, ...], amatrix: ArrayLike) -> ExpSum:
    """tau from phases kappa and an M x N coefficient matrix.

    Expands the Wronskian of f_n = sum_m a_{mn} exp(theta_m) into minors:
    every subset S of N rows contributes det(A[S]) times the Vandermonde
    of kappa[S] times exp(sum of theta over S).  Each term is keyed by the
    indicator vector of S, in the order of the subsets, and zero minors are
    dropped.  Phases must be `errors.finite_real`s, entries finite, minors
    nonnegative and the matrix of full column rank, else the configuration
    is rejected.
    """
    amatrix = np.asarray(amatrix, dtype=float)
    if amatrix.ndim != 2:
        raise RejectedConfig(f"coefficient matrix must be 2-D, got shape {amatrix.shape}")
    if not (np.isfinite(amatrix).all() and all(map(finite_real, kappa))):
        raise RejectedConfig(f"non-finite phases {kappa} or coefficients {amatrix.tolist()}")
    big_m, small_n = amatrix.shape
    if len(kappa) != big_m:
        raise RejectedConfig(f"coefficient matrix has {big_m} rows for {len(kappa)} phases")
    if small_n > big_m:
        raise RejectedConfig("more columns than phases")
    scale = max(1.0, float(np.abs(amatrix).max(initial=0.0)) ** small_n)
    terms: dict[tuple[int, ...], complex] = {}
    for subset in combinations(range(big_m), small_n):
        minor = float(np.linalg.det(amatrix[list(subset), :])) if small_n else 1.0
        if minor < -1e-12 * scale:
            raise RejectedConfig(f"negative minor {minor:.3e} on rows {tuple(s + 1 for s in subset)}")
        if minor <= 1e-12 * scale:
            continue
        key = tuple(1 if m in subset else 0 for m in range(big_m))
        terms[key] = complex(minor * _vandermonde(tuple(kappa[s] for s in subset)))
    if small_n and (not terms or np.linalg.matrix_rank(amatrix) < small_n):
        raise RejectedConfig("coefficient matrix has rank below its column count")
    return ExpSum(theta_gens(kappa), terms)


@dataclass(frozen=True)
class SolitonConfig:
    """A kind of line soliton on strictly increasing phase speeds kappa.

    The kind is "one_line", on the 1-based phase `pair`, or a row of
    `MATCHINGS`; the two-line kinds take four phases, and the vacuum any
    number, its tau the constant 1.  `__post_init__` resolves the kind and
    pair into `lines`, the matching every structural method reads: the
    line (i, j, s) is the column s e_i + e_j of `amatrix` and the channel
    (i, j) of `channel_pairs`.
    """

    kind: str                          # "one_line" or a key of MATCHINGS
    kappa: tuple[float, ...]           # strictly increasing phase speeds
    pair: tuple[int, int] | None = None  # 1-based phase pair for one_line
    lines: tuple[tuple[int, int, int], ...] = dataclasses.field(
        init=False, compare=False, repr=False)  # the matching, resolved from kind and pair

    def __post_init__(self):
        if self.kind != "one_line" and self.kind not in MATCHINGS:
            raise RejectedConfig(f"unknown kind {self.kind!r}")
        ks = tuple(self.kappa)
        if not all(map(finite_real, ks)):
            raise RejectedConfig(f"phase speeds must be finite reals, got {ks!r}")
        ks = tuple(float(k) for k in ks)
        object.__setattr__(self, "kappa", ks)
        for a, b in zip(ks, ks[1:]):
            if not b > a:
                raise RejectedConfig(f"phases must increase strictly, got {a} before {b}")
        if self.kind == "one_line":
            pair = phase_pair(self.pair)
            if pair is None or not 1 <= pair[0] < pair[1] <= len(ks):
                raise RejectedConfig(f"one_line needs a pair of two increasing phase "
                                     f"indices in 1..{len(ks)}, got {self.pair!r}")
            object.__setattr__(self, "pair", pair)
            lines = ((*pair, 1),)
        else:
            lines = MATCHINGS[self.kind]
            if lines and len(ks) != 2 * len(lines):
                raise RejectedConfig(f"{self.kind} needs {2 * len(lines)} phases, got {len(ks)}")
            if self.pair is not None:
                raise RejectedConfig(f"{self.kind} does not take a pair")
        object.__setattr__(self, "lines", lines)

    # ----- structure -----

    def amatrix(self) -> np.ndarray:
        """The coefficient matrix: column s e_i + e_j for each line (i, j, s)."""
        out = np.zeros((len(self.kappa), len(self.lines)))
        for n, (i, j, s) in enumerate(self.lines):
            out[i - 1, n], out[j - 1, n] = s, 1.0
        return out

    def field(self) -> "SolitonField":
        return SolitonField(self)

    def channel_pairs(self) -> tuple[tuple[int, int], ...]:
        """Phase pairs of the asymptotic line solitons, 1-based, in line order."""
        return tuple((i, j) for i, j, _ in self.lines)

    def nested(self) -> bool:
        """Whether the second line encloses the first (P type), rather than
        standing beside it (O type); False with fewer than two lines."""
        if len(self.lines) < 2:
            return False
        (i1, j1, _), (i2, j2, _) = self.lines[:2]
        return i2 < i1 and j1 < j2


def build_tau(config: SolitonConfig) -> ExpSum:
    """The tau of config, built anew on each call; the fields, the level
    chains and `darboux.backlund_catalog` each keep the tau they read."""
    return wronskian_tau(config.kappa, config.amatrix())


def potential(tau: ExpSum) -> Rational:
    """u = 2 (log tau)_xx as an exact rational object."""
    tx = tau.dx()
    return Rational.from_quotient(2.0 * (tx.dx() * tau - tx * tx), tau, tau)


def potential_yprim(tau: ExpSum) -> Rational:
    """2 (log tau)_xy, the fixed dx^{-1} dy of the potential."""
    return Rational.from_quotient(
        2.0 * (tau.dx().dy() * tau - tau.dx() * tau.dy()), tau, tau)


@dataclass(frozen=True)
class Frame:
    b1: float
    b2: float
    channels: tuple[Branch, Branch]


def frame_of(config: SolitonConfig) -> Frame:
    """Co-moving frame speeds (b1, b2) that freeze both line solitons.

    Solves b1 + 2 a_ij b2 = omega_ij on the two channels; a one-channel or
    equal-slope configuration leaves the system singular.
    """
    pairs = config.channel_pairs()
    if len(pairs) != 2:
        raise DegenerateFrame(f"{config.kind} has {len(pairs)} channel(s), frame needs 2")
    chans = tuple(branch_of(config, p) for p in pairs)
    a1, a2 = chans[0].a, chans[1].a
    scale = max(1.0, abs(a1), abs(a2))
    if abs(a1 - a2) <= 1e-12 * scale:
        raise DegenerateFrame(f"channel slopes coincide, a={a1}")
    b2 = (chans[1].omega - chans[0].omega) / (2.0 * (a2 - a1))
    b1 = chans[0].omega - 2.0 * a1 * b2
    return Frame(b1=b1, b2=b2, channels=chans)


@dataclass(frozen=True)
class Profile:
    """One far-field line soliton on `pair`: tau = e^{theta_i} + e^{2 mu} e^{theta_j},
    the one-column `wronskian_tau`, whose field potential(tau) is the line
    2c sech^2((theta_j - theta_i)/2 + mu)."""
    pair: tuple[int, int]
    mu: float
    tau: ExpSum


def asymptotic_profile(config: SolitonConfig, pair: tuple[int, int], y_sign: int) -> Profile:
    """Far-field soliton on `pair` as y_sign * y grows large.

    Along the crest of the channel (i, j), x = -(kappa_i + kappa_j) y at
    t = 0, the term of tau on row subset S grows with y_sign * y at the rate
    y_sign * sum over m in S of (kappa_m - kappa_i)(kappa_m - kappa_j), up
    to a rate all subsets of one size share.  The two leading terms are
    S+i and S+j, which tie exactly, and their coefficients give the phase
    shift mu = log(c_{S+j} / c_{S+i}) / 2; it depends on which side of the
    interaction region the channel is observed from.  A shift so large that
    the `Profile` tau drops an entry as a zero minor raises RejectedConfig.
    """
    check_sign(y_sign)
    branch_of(config, pair)  # InvalidBranch unless pair is a channel
    pair, k = phase_pair(pair), config.kappa
    i, j = pair[0] - 1, pair[1] - 1
    terms = build_tau(config).terms
    rates = {subset: y_sign * sum((k[m] - k[i]) * (k[m] - k[j])
                                  for m, bit in enumerate(subset) if bit)
             for subset in terms}
    top = max(rates.values())
    lead = sorted((subset for subset, rate in rates.items() if rate == top),
                  key=lambda subset: subset[j])
    if len(lead) != 2 or [m for m, (a, b) in enumerate(zip(*lead)) if a != b] != [i, j]:
        raise InvalidBranch(f"the leading terms {lead} on channel {pair} are not one i<->j pair")
    with_i, with_j = lead
    mu = 0.5 * math.log(terms[with_j].real / terms[with_i].real)
    column = np.zeros((len(k), 1))
    column[[i, j], 0] = 1.0, math.exp(2.0 * mu)
    tau = wronskian_tau(k, column)
    if len(tau.terms) != 2:
        raise RejectedConfig(f"phase shift mu = {mu} on channel {pair} drops a term of its tau")
    return Profile(pair, mu, tau)


# The partials of log tau that kpii_residual reads: u = 2 (log tau)_xx and
# its x, xx, xxxx, xt and yy derivatives.
_KP_PARTIALS = ((2, 0, 0), (3, 0, 0), (4, 0, 0), (6, 0, 0), (3, 0, 1), (2, 2, 0))


def _kp_block(partials: dict) -> dict:
    """The KP-II residual and its term scale on one block of `_KP_PARTIALS`."""
    g = {key: val.real for key, val in partials.items()}
    # with u = 2 g200: 4u_xt = 8 g301, u_xxxx = 2 g600, 3u_yy = 6 g220 and
    # 3(u^2)_xx = 6(u_x^2 + u u_xx) = 24(g300^2 + g200 g400)
    term_t = 8.0 * g[(3, 0, 1)]
    term_x4 = 2.0 * g[(6, 0, 0)]
    term_nl = 24.0 * (g[(3, 0, 0)] ** 2 + g[(2, 0, 0)] * g[(4, 0, 0)])
    term_y2 = 6.0 * g[(2, 2, 0)]
    return dict(zip(("res", "scale"), sum_residual([term_t, term_x4, term_nl, term_y2])))


class SolitonField:
    """Evaluates the KP-II residual of u = 2 (log tau)_xx on point sets.

    The residual reads u and its partials from `log_derivatives` of tau,
    not from the exact Rational `potential` that the Jost and Darboux
    identities use, so u has two routes: this one and `potential`.
    Each block's partials are reduced to the residual inside `log_derivatives`.
    """

    def __init__(self, config: SolitonConfig):
        self.config = config
        self.tau = build_tau(config)

    def kpii_residual(self, x, y, t) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise |4u_xt + u_xxxx + 3(u^2)_xx + 3u_yy| and its term scale."""
        out = log_derivatives(self.tau, (6, 2, 1), x, y, t, only=_KP_PARTIALS, reduce=_kp_block)
        return out["res"], out["scale"]
