"""Composite Gauss-Legendre panel calculus on a line window.

The channel inverses of `darboux` integrate sampled profiles against
exponential kernels.  A `PanelGrid` supplies the panel derivative,
antiderivative and integral, and `exp_cumulative` / `based_cumulative`
the exponentially weighted cumulative integrals, each evaluated relative
to its output point so that no growth appears that the true integral
lacks.  A cumulative sweeps only the panels it reads: `based_cumulative`
sweeps each side of the origin over that side's panels alone, and
`exp_cumulative` the panels it is given, the whole window or a run of
panels at the edge its integral starts from.  A right sweep multiplies its
mirrored samples as a negative-stride view, which numpy multiplies on its
non-BLAS path (a contiguous copy would take the BLAS path), and a lone
panel is swept beside a zero panel, since numpy multiplies a one-row block
on a single-row path: either path would change the bytes of an output row
against the same row of a whole-window sweep.  On OpenBLAS kernels that
compute a row of a block alike whatever the block's size (the AVX-512
ones) a half-window sweep so keeps those bytes; the Haswell kernel moves
some rows by a few 1e-16 of the output's peak.  A NaN or inf sample
makes a cumulative, an antiderivative or an integral raise ConfigMismatch.

The matrices of one unit panel depend only on the panel order, so each
order's rule is built once, kept read-only in a cache of the last 8 orders,
and shared by every grid of that order.  Likewise the sweep kernel of one
exponential rate (the panel totals weights, the carry factors and the local
Lagrange contraction) depends only on the rate and the order, so a cache of
the last 16 (rate, order) pairs keeps it read-only for every cumulative at
that rate.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import ConfigMismatch, RegionViolation, finite_number, whole_number

__all__ = [
    "PanelGrid",
    "exp_cumulative",
    "based_cumulative",
]


# ----- composite Gauss-Legendre panels -----


class _UnitRule(NamedTuple):
    """The read-only Gauss-Legendre rule of one unit panel of a given order.

    nodes           Gauss nodes on [-1, 1]
    offsets, unit_w node offsets from the panel's left edge and their weights
    deriv           derivative matrix of the panel interpolant at the nodes
    basis           basis[i, j, m]: node m's Lagrange polynomial at
                    offsets[i] * offsets[j], complex so that a complex kernel
                    contracts with it in one matmul
    """

    nodes: np.ndarray
    offsets: np.ndarray
    unit_w: np.ndarray
    deriv: np.ndarray
    basis: np.ndarray


# a sweep over panel orders keeps the rules of its last 8 orders
@lru_cache(maxsize=8)
def _unit_rule(order: int) -> _UnitRule:
    """The unit-panel rule of one order, built on the first request."""
    xg, wg = npleg.leggauss(order)
    offsets = 0.5 * (xg + 1.0)
    to_coef = np.linalg.inv(npleg.legvander(xg, order - 1))
    slope = npleg.legval(xg, npleg.legder(np.eye(order))).T
    sub = np.outer(offsets, offsets)
    basis = (npleg.legvander(2.0 * sub - 1.0, order - 1) @ to_coef).astype(complex)
    rule = _UnitRule(xg, offsets, 0.5 * wg, 2.0 * slope @ to_coef, basis)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _whole(value, what: str) -> int:
    """value as an int; ConfigMismatch unless it is an `errors.whole_number`."""
    out = whole_number(value)
    if out is None:
        raise ConfigMismatch(f"{what} must be an integer, got {value!r}")
    return out


class PanelGrid:
    """Unit-length Gauss-Legendre panels with a fixed matrix per operation.

    Every unit panel carries the same node offsets, so each panel operation
    is one (order x order) matrix applied to the (npan, order) reshape of
    the node samples.  The matrices are the derivative of the panel
    interpolant and the Lagrange basis of that interpolant at the panel's
    own Gauss rule mapped onto [left edge, node] for every node; the
    weighted cumulatives contract the latter with their exponential.  They
    belong to the order's read-only `_unit_rule`, which every grid of that
    order shares and a cache keeps for the last 8 orders.  Edges and order
    must be integers, else ConfigMismatch.  `has_origin` records whether the
    origin is a panel edge, as `based_cumulative` needs.  Sampled smooth
    functions keep spectral accuracy end to end.
    """

    def __init__(self, lo: int, hi: int, per_unit: int = 32):
        lo, hi = _whole(lo, "panel edge"), _whole(hi, "panel edge")
        if hi - lo < 2:
            raise ConfigMismatch("panel window needs at least two unit panels")
        order = _whole(per_unit, "panel order")
        if order < 1:
            raise ConfigMismatch(f"panel order must be at least 1, got {per_unit!r}")
        rule = _unit_rule(order)
        self.lo, self.hi = float(lo), float(hi)
        self.order = order
        self.npan = hi - lo
        self.has_origin = lo <= 0 <= hi
        self.edges = lo + np.arange(self.npan + 1, dtype=float)
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.z = (mids[:, None] + 0.5 * rule.nodes[None, :]).ravel()
        self.w = np.tile(rule.unit_w, self.npan)
        for arr in (self.edges, self.z, self.w):  # a channel's operators share its grid
            arr.flags.writeable = False
        self.offsets, self.unit_w = rule.offsets, rule.unit_w
        self._deriv, self._basis = rule.deriv, rule.basis

    def _panels(self, vals, run: bool = False) -> np.ndarray:
        """vals as (panels, order) samples of every panel, or with run of any
        k >= 1 whole panels; ConfigMismatch if not numeric or mis-sized."""
        try:
            vals = np.asarray(vals, dtype=complex)
        except (TypeError, ValueError):
            raise ConfigMismatch(f"sampled input is not numeric: {type(vals).__name__}") from None
        npan = vals.size // self.order if run else self.npan
        if vals.shape != (npan * self.order,) or not 0 < npan <= self.npan:
            raise ConfigMismatch(
                f"sampled input has shape {vals.shape}, grid has {self.z.shape}")
        return vals.reshape(npan, self.order)

    def derivative(self, vals) -> np.ndarray:
        return (self._panels(vals) @ self._deriv.T).ravel()

    def antiderivative(self, vals) -> np.ndarray:
        """Primitive vanishing at the right edge: -integral from z to hi."""
        return -exp_cumulative(self, vals, 0.0, "right")

    def integral(self, vals) -> complex:
        """The integral over the window; ConfigMismatch where it is not finite,
        as a NaN or inf sample makes it."""
        with np.errstate(invalid="ignore"):  # an inf sample meets a zero imaginary part
            out = complex(np.dot(self.w, self._panels(vals).ravel()))
        if not cmath.isfinite(out):
            raise ConfigMismatch("integral of the sampled input is not finite")
        return out


# ----- exponentially weighted cumulatives -----


def _exp_guard(q: complex, span: float) -> complex:
    """q as a complex; RegionViolation unless it is an `errors.finite_number`
    (a bool or a numeric string is not one) whose weight fits the span."""
    if not finite_number(q):
        raise RegionViolation(f"exponential rate must be a finite number, got {q!r}")
    q = complex(q)
    if abs(q.real) * span > 650.0:
        raise RegionViolation(
            "exponential weight outruns the quadrature window; "
            f"|Re q| * span = {abs(q.real) * span:.1f}"
        )
    return q


# a round trip reads at most three rates (+/-gamma and the antiderivative's
# 0), and the two tails of a two-sided inverse share +gamma.  Rates +0 and -0
# compare equal and share one entry; their carry factors and steps differ
# only in the sign of a zero imaginary part, which changes no nonzero output.
@lru_cache(maxsize=16)
def _sweep_kernel(q: complex, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                  complex]:
    """(totals weights, carry factors, local, step) of the left sweep at rate q.

    totals weights  w e^{q (off - 1)}: a panel's integral weighted to its right edge
    carry factors   e^{-q off}: an edge's accumulated integral carried to each node
    local[i, m]     weight of sample m in the integral over [edge, edge + off[i]]
    step            e^{-q} as a Python complex: one panel's carry, panel length being one
    """
    rule = _unit_rule(order)
    off, w = rule.offsets, rule.unit_w
    kernel = off[:, None] * w[None, :] * np.exp(q * off[:, None] * (off[None, :] - 1.0))
    out = (w * np.exp(q * (off - 1.0)), np.exp(-q * off),
           np.matmul(kernel[:, None, :], rule.basis)[:, 0, :])
    for arr in out:
        arr.flags.writeable = False
    return (*out, complex(np.exp(-q)))


def _edge_carry(totals: np.ndarray, q: complex, step: complex) -> np.ndarray:
    """edge_acc[k]: the integral from the sweep's first edge to the left edge
    of panel k weighted to that edge, carried one panel at a time from left
    to right by acc * step + t from acc = +0.  The carry stays sequential: at
    the low plus inverse's window edge the output is the cosh-amplified
    remnant of a cancelling secular integral, so any reordering of the carry
    (a doubling scan, say) shows there as a round-trip error some 20 times
    larger.  At rate 0 the step is 1 +/- 0j, and while the partial sums
    stay finite acc * step + t equals acc + t byte for byte (no partial sum
    from +0 is ever -0), so np.cumsum carries in the same order."""
    if q == 0:
        return np.cumsum(np.concatenate(((0j,), totals[:-1])))
    return np.fromiter(
        accumulate(totals[:-1].tolist(), lambda acc, t: acc * step + t, initial=0j),
        complex, count=len(totals))


def _left_sweep(grid: PanelGrid, g: np.ndarray, q: complex) -> np.ndarray:
    """Integral with kernel e^{q (z' - z)} of panel samples g over [a, z], with
    a the left edge of g's first panel: the sweep reads the panels of g and no
    others, whether they fill the window or not.  ConfigMismatch where a
    panel's weighted total is not finite, as a NaN or inf sample makes it, so
    the carry only ever sees finite totals.  g is multiplied as given, so
    `_sweep` keeps mirrored samples a view and never passes a lone panel.
    """
    weights, carry, local, step = _sweep_kernel(q, grid.order)
    with np.errstate(invalid="ignore"):  # an inf sample meets a zero imaginary part
        totals = g @ weights
    if not np.isfinite(totals).all():
        raise ConfigMismatch("sampled input is not finite on every panel")
    out = g @ local.T
    out += _edge_carry(totals, q, step)[:, None] * carry[None, :]
    return out


def _sweep(grid: PanelGrid, g: np.ndarray, q: complex, side: str) -> np.ndarray:
    """The flat cumulative of panel samples g: side "left" from the left edge
    of g's first panel, side "right" to the right edge of its last.  The right
    sweep is the left sweep of the mirrored samples with -q, since the Gauss
    nodes are symmetric in each panel; the mirror stays a negative-stride view
    (a contiguous copy would go through BLAS and change the bytes), and the
    result comes back as a reversed view.  A lone panel is swept with a zero
    panel after it, which it does not read, so that its row multiplies as a
    row of a block does."""
    if not len(g):  # the side beyond an origin at a window edge
        return np.empty(0, complex)
    if len(g) == 1:
        pair = np.zeros((2, grid.order), complex)
        pair[int(side == "right")] = g[0]
        out = _sweep(grid, pair, q, side)
        return out[grid.order:] if side == "right" else out[:grid.order]
    if side == "left":
        return _left_sweep(grid, g, q).ravel()
    if side == "right":
        return _left_sweep(grid, g[::-1, ::-1], -q).ravel()[::-1]
    raise ConfigMismatch(f"unknown cumulative side {side!r}")


def exp_cumulative(grid: PanelGrid, vals, q: complex, side: str) -> np.ndarray:
    """At each node z return the weighted integral with kernel e^{q (z' - z)}.

    side "left" integrates z' over [lo, z]; side "right" over [z, hi], which
    is the left integral of the mirrored samples with -q.  vals holds the
    samples of the whole window, or of a run of its whole panels that starts
    at lo for side "left" or ends at hi for side "right": the integral reads
    no panel beyond the output point, so only that run is swept and the
    output covers its nodes.  Every exponential is evaluated relative to the
    output point, so the only growth that can appear is growth present in
    the true integral.  A right integral is returned as a reversed view.
    """
    g = grid._panels(vals, run=True)
    return _sweep(grid, g, _exp_guard(q, grid.hi - grid.lo), side)


def based_cumulative(grid: PanelGrid, vals, q: complex) -> np.ndarray:
    """Oriented integral from the origin: e^{q(z'-z)} g over [0, z].

    Each side sweeps only the panels on its own side of the origin: above it
    the left sweep from the origin, below it the right sweep to the origin,
    negated.  On the kernels named in the module docstring the result keeps
    the bytes of two whole-window sweeps of the samples with the other side
    set to zero, a side of one panel included.
    """
    if not grid.has_origin:
        raise ConfigMismatch("based cumulative needs the origin on a panel edge")
    g = grid._panels(vals)
    q = _exp_guard(q, grid.hi - grid.lo)
    cut = round(-grid.lo)  # the panels below the origin
    below = _sweep(grid, g[:cut], q, "right")
    above = _sweep(grid, g[cut:], q, "left")
    return np.concatenate((-below, above))
