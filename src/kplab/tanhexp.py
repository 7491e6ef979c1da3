"""Composite Gauss-Legendre panel calculus on a line window.

The channel inverses of `darboux` integrate sampled profiles against
exponential kernels.  A `PanelGrid` supplies the panel derivative,
antiderivative and integral, and `exp_cumulative` / `based_cumulative`
the exponentially weighted cumulative integrals, each evaluated relative
to its output point so that no growth appears that the true integral
lacks.  The matrices of one unit panel depend only on the panel order, so
each order's rule is built once, kept read-only in a cache of the last 8
orders, and shared by every grid of that order.  Likewise the sweep kernel
of one exponential rate (the panel totals weights, the carry factors and
the local Lagrange contraction) depends only on the rate and the order, so
a cache of the last 16 (rate, order) pairs keeps it read-only for every
cumulative at that rate.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import ConfigMismatch, RegionViolation, whole_number

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

    def _panels(self, vals) -> np.ndarray:
        try:
            vals = np.asarray(vals, dtype=complex)
        except (TypeError, ValueError):
            raise ConfigMismatch(f"sampled input is not numeric: {type(vals).__name__}") from None
        if vals.shape != self.z.shape:
            raise ConfigMismatch(
                f"sampled input has shape {vals.shape}, grid has {self.z.shape}")
        return vals.reshape(self.npan, self.order)

    def derivative(self, vals) -> np.ndarray:
        return (self._panels(vals) @ self._deriv.T).ravel()

    def antiderivative(self, vals) -> np.ndarray:
        """Primitive vanishing at the right edge: -integral from z to hi."""
        return -exp_cumulative(self, vals, 0.0, "right")

    def integral(self, vals) -> complex:
        return complex(np.dot(self.w, self._panels(vals).ravel()))


# ----- exponentially weighted cumulatives -----


def _exp_guard(q: complex, span: float) -> None:
    if not cmath.isfinite(q):
        raise RegionViolation(f"exponential rate must be finite, got {q}")
    if abs(q.real) * span > 650.0:
        raise RegionViolation(
            "exponential weight outruns the quadrature window; "
            f"|Re q| * span = {abs(q.real) * span:.1f}"
        )


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


def _left_sweep(grid: PanelGrid, g: np.ndarray, q: complex) -> np.ndarray:
    """Integral over [lo, z] with kernel e^{q (z' - z)} of panel samples g."""
    weights, carry, local, step = _sweep_kernel(q, grid.order)
    totals = g @ weights
    # edge_acc[k]: integral over [lo, edges[k]] weighted to edges[k], carried
    # one panel at a time from left to right.  The carry stays sequential: at
    # the low plus inverse's window edge the output is the cosh-amplified
    # remnant of a cancelling secular integral, so any reordering of the
    # carry (a doubling scan, say) shows there as a round-trip error some
    # 20 times larger.
    edge_acc = np.fromiter(
        accumulate(totals[:-1].tolist(), lambda acc, t: acc * step + t, initial=0j),
        complex, count=grid.npan)
    return edge_acc[:, None] * carry[None, :] + g @ local.T


def exp_cumulative(grid: PanelGrid, vals, q: complex, side: str) -> np.ndarray:
    """At each node z return the weighted integral with kernel e^{q (z' - z)}.

    side "left" integrates z' over [lo, z]; side "right" over [z, hi], which
    is the left integral of the mirrored samples with -q, since the Gauss
    nodes are symmetric in each panel.  Every exponential is evaluated
    relative to the output point, so the only growth that can appear is
    growth present in the true integral.
    """
    g = grid._panels(vals)
    q = complex(q)
    _exp_guard(q, grid.hi - grid.lo)
    if side == "left":
        return _left_sweep(grid, g, q).ravel()
    if side == "right":
        return _left_sweep(grid, g[::-1, ::-1], -q)[::-1, ::-1].ravel()
    raise ConfigMismatch(f"unknown cumulative side {side!r}")


def based_cumulative(grid: PanelGrid, vals, q: complex) -> np.ndarray:
    """Oriented integral from the origin: e^{q(z'-z)} g over [0, z]."""
    if not grid.has_origin:
        raise ConfigMismatch("based cumulative needs the origin on a panel edge")
    vals = np.asarray(vals, dtype=complex)
    above = grid.z >= 0.0
    upper = exp_cumulative(grid, np.where(above, vals, 0.0), q, "left")
    lower = exp_cumulative(grid, np.where(above, 0.0, vals), q, "right")
    return np.where(above, upper, -lower)
