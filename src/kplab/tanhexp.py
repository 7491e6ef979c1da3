"""Closed hyperbolic-exponential algebra on a line, plus panel quadrature.

Profiles built from the four tau levels restrict, on each co-moving line,
to finite sums of  c * tanh(s z)^m * sech(s z)^p * exp(mu z).  That family
is closed under differentiation and multiplication once tanh^2 is reduced
to 1 - sech^2, so every one-dimensional identity can be evaluated without
numerical differentiation.  The panel grid at the bottom supplies the
composite Gauss-Legendre calculus used by the inverse operators.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import ConfigMismatch, RegionViolation
from .expsum import Ring

__all__ = [
    "TanhExp",
    "PanelGrid",
    "exp_cumulative",
    "based_cumulative",
]


# ----- term algebra -----


def _put(acc: dict, m: int, p: int, mu: complex, coef: complex) -> None:
    # reduce tanh powers so stored keys keep m in {0, 1}
    while m >= 2:
        _put(acc, m - 2, p + 2, mu, -coef)
        m -= 2
    if coef == 0:
        return
    key = (m, p, complex(mu))
    new = acc.get(key, 0j) + coef
    if new == 0:
        acc.pop(key, None)
    else:
        acc[key] = new


class TanhExp(Ring):
    """Finite sum of tanh(s z)^m sech(s z)^p e^(mu z) terms over one rate s."""

    __slots__ = ("rate", "terms")

    def __init__(self, rate: float, terms: dict | None = None):
        self.rate = float(rate)
        self.terms = {} if terms is None else terms

    @staticmethod
    def term(rate: float, coef: complex, m: int = 0, p: int = 0, mu: complex = 0j) -> "TanhExp":
        acc: dict = {}
        _put(acc, m, p, mu, complex(coef))
        return TanhExp(rate, acc)

    @staticmethod
    def const(rate: float, coef: complex) -> "TanhExp":
        return TanhExp.term(rate, coef)

    @staticmethod
    def sech(rate: float, power: int = 1, coef: complex = 1.0) -> "TanhExp":
        return TanhExp.term(rate, coef, 0, power)

    @staticmethod
    def tanh(rate: float, coef: complex = 1.0) -> "TanhExp":
        return TanhExp.term(rate, coef, 1, 0)

    # -- ring operations --

    def _check(self, other: "TanhExp") -> None:
        if self.rate != other.rate:
            raise ConfigMismatch(
                f"profile rates differ: {self.rate} vs {other.rate}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TanhExp.const(self.rate, other)
        if not isinstance(other, TanhExp):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for (m, p, mu), c in other.terms.items():
            _put(acc, m, p, mu, c)
        return TanhExp(self.rate, acc)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TanhExp(self.rate, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, TanhExp):
            return NotImplemented
        self._check(other)
        acc: dict = {}
        for (m1, p1, u1), c1 in self.terms.items():
            for (m2, p2, u2), c2 in other.terms.items():
                _put(acc, m1 + m2, p1 + p2, u1 + u2, c1 * c2)
        return TanhExp(self.rate, acc)

    # -- calculus --

    def d(self) -> "TanhExp":
        """Derivative in z; closed because d tanh = s sech^2, d sech = -s sech tanh."""
        s = self.rate
        acc: dict = {}
        for (m, p, mu), c in self.terms.items():
            if m:
                _put(acc, m - 1, p + 2, mu, c * m * s)
            if p:
                _put(acc, m + 1, p, mu, -c * p * s)
            if mu != 0:
                _put(acc, m, p, mu, c * mu)
        return TanhExp(self.rate, acc)

    # -- evaluation --

    def eval_scaled(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(0, value): a profile's value carries its own scale."""
        val = self.eval(z)
        return np.zeros(val.shape), val

    def eval(self, z):
        z = np.asarray(z, dtype=float)
        sz = self.rate * z
        t = np.tanh(sz)
        # log sech, stable for large |sz|
        lsech = np.log(2.0) - np.abs(sz) - np.log1p(np.exp(-2.0 * np.abs(sz)))
        out = np.zeros(z.shape, dtype=complex)
        for (m, p, mu), c in self.terms.items():
            piece = np.exp(p * lsech + mu * z)
            if m:
                piece = piece * t
            out += c * piece
        return out


# ----- composite Gauss-Legendre panels -----


class PanelGrid:
    """Unit-length Gauss-Legendre panels with a fixed matrix per operation.

    Every unit panel carries the same node offsets, so each panel operation
    is one (order x order) matrix applied to the (npan, order) reshape of
    the node samples.  The grid builds, once, the derivative matrix of the
    panel interpolant and the Lagrange basis of that interpolant at the
    panel's own Gauss rule mapped onto [left edge, node] for every node;
    the weighted cumulatives contract the latter with their exponential.
    Sampled smooth functions keep spectral accuracy end to end.
    """

    def __init__(self, lo: int, hi: int, per_unit: int = 32):
        lo, hi = int(lo), int(hi)
        if hi - lo < 2:
            raise ConfigMismatch("panel window needs at least two unit panels")
        self.lo, self.hi = float(lo), float(hi)
        self.order = int(per_unit)
        self.npan = hi - lo
        xg, wg = npleg.leggauss(self.order)
        self.edges = lo + np.arange(self.npan + 1, dtype=float)
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.z = (mids[:, None] + 0.5 * xg[None, :]).ravel()
        self.w = np.tile(0.5 * wg, self.npan)
        # node offsets from the left edge and weights of one unit panel
        self.offsets = 0.5 * (xg + 1.0)
        self.unit_w = 0.5 * wg
        to_coef = np.linalg.inv(npleg.legvander(xg, self.order - 1))
        slope = npleg.legval(xg, npleg.legder(np.eye(self.order))).T
        self._deriv = 2.0 * slope @ to_coef
        # basis[i, j, m]: node m's Lagrange polynomial at offsets[i] * offsets[j]
        sub = np.outer(self.offsets, self.offsets)
        self._basis = npleg.legvander(2.0 * sub - 1.0, self.order - 1) @ to_coef

    def _panels(self, vals) -> np.ndarray:
        vals = np.asarray(vals, dtype=complex)
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
    if abs(np.real(q)) * span > 650.0:
        raise RegionViolation(
            "exponential weight outruns the quadrature window; "
            f"|Re q| * span = {abs(np.real(q)) * span:.1f}"
        )


def _left_sweep(grid: PanelGrid, g: np.ndarray, q: complex) -> np.ndarray:
    """Integral over [lo, z] with kernel e^{q (z' - z)} of panel samples g."""
    off, w = grid.offsets, grid.unit_w
    # each panel's integral weighted to its right edge
    totals = g @ (w * np.exp(q * (off - 1.0)))
    # edge_acc[k]: integral over [lo, edges[k]] weighted to edges[k]
    # a scalar carry: a closed-form cumsum of powers of e^{-q} would overflow
    edge_acc = np.empty(grid.npan, dtype=complex)
    acc = 0j
    step = np.exp(-q)  # panel length is one
    for k in range(grid.npan):
        edge_acc[k] = acc
        acc = acc * step + totals[k]
    carried = edge_acc[:, None] * np.exp(-q * off)[None, :]
    # local[i, m]: weight of sample m in the integral over [edge, edge + off[i]]
    kernel = off[:, None] * w[None, :] * np.exp(q * off[:, None] * (off[None, :] - 1.0))
    local = np.einsum("ij,ijm->im", kernel, grid._basis)
    return carried + g @ local.T


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


def based_cumulative(grid: PanelGrid, vals, q: complex, base: float = 0.0) -> np.ndarray:
    """Oriented integral from a fixed base edge: e^{q(z'-z)} g over [base, z]."""
    if not np.any(np.isclose(grid.edges, base)):
        raise ConfigMismatch("cumulative base must sit on a panel edge")
    vals = np.asarray(vals, dtype=complex)
    above = grid.z >= base
    upper = exp_cumulative(grid, np.where(above, vals, 0.0), q, "left")
    lower = exp_cumulative(grid, np.where(above, 0.0, vals), q, "right")
    return np.where(above, upper, -lower)
