"""Closed hyperbolic-exponential algebra on a line, plus panel quadrature.

Profiles built from the four tau levels restrict, on each co-moving line,
to finite sums of  c * tanh(s z)^m * sech(s z)^p * exp(mu z).  That family
is closed under differentiation and multiplication once tanh^2 is reduced
to 1 - sech^2, so every one-dimensional identity can be evaluated without
numerical differentiation.  The panel grid at the bottom supplies the
composite Gauss-Legendre calculus used by the inverse operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import ConfigMismatch, MissingPrimitive, RegionViolation

__all__ = [
    "TanhExp",
    "Profile1D",
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


class TanhExp:
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

    @staticmethod
    def exp(rate: float, mu: complex, coef: complex = 1.0) -> "TanhExp":
        return TanhExp.term(rate, coef, 0, 0, mu)

    # -- ring operations --

    def _check(self, other: "TanhExp") -> None:
        if self.rate != other.rate:
            raise ConfigMismatch(
                f"profile rates differ: {self.rate} vs {other.rate}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TanhExp.const(self.rate, other)
        self._check(other)
        acc = dict(self.terms)
        for (m, p, mu), c in other.terms.items():
            _put(acc, m, p, mu, c)
        return TanhExp(self.rate, acc)

    __radd__ = __add__

    def __neg__(self):
        return TanhExp(self.rate, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TanhExp.const(self.rate, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TanhExp(self.rate, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        acc: dict = {}
        for (m1, p1, u1), c1 in self.terms.items():
            for (m2, p2, u2), c2 in other.terms.items():
                _put(acc, m1 + m2, p1 + p2, u1 + u2, c1 * c2)
        return TanhExp(self.rate, acc)

    __rmul__ = __mul__

    # -- calculus and symmetries --

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

    def reflect(self) -> "TanhExp":
        acc: dict = {}
        for (m, p, mu), c in self.terms.items():
            _put(acc, m, p, -mu, c * (-1.0) ** m)
        return TanhExp(self.rate, acc)

    def conjugate(self) -> "TanhExp":
        acc: dict = {}
        for (m, p, mu), c in self.terms.items():
            _put(acc, m, p, np.conj(mu), np.conj(c))
        return TanhExp(self.rate, acc)

    # -- evaluation --

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


# ----- profiles with carried primitives -----


@dataclass(frozen=True)
class Profile1D:
    """A profile together with the z-antiderivative used by nonlocal terms.

    The convention throughout is the primitive vanishing as z -> +infinity,
    the one selected by the exponential weight on the line.
    """

    value: TanhExp
    zprim: TanhExp | None = None

    def d(self) -> "Profile1D":
        return Profile1D(self.value.d(), zprim=self.value)

    def prim(self) -> TanhExp:
        if self.zprim is None:
            raise MissingPrimitive("profile has no exact z-antiderivative")
        return self.zprim

    def __add__(self, other: "Profile1D") -> "Profile1D":
        zp = None
        if self.zprim is not None and other.zprim is not None:
            zp = self.zprim + other.zprim
        return Profile1D(self.value + other.value, zprim=zp)

    def __sub__(self, other: "Profile1D") -> "Profile1D":
        zp = None
        if self.zprim is not None and other.zprim is not None:
            zp = self.zprim - other.zprim
        return Profile1D(self.value - other.value, zprim=zp)

    def __mul__(self, c):
        zp = None if self.zprim is None else self.zprim * c
        return Profile1D(self.value * c, zprim=zp)

    __rmul__ = __mul__


# ----- composite Gauss-Legendre panels -----

_SUB_ORDER = 16


class PanelGrid:
    """Unit-length Gauss-Legendre panels with per-panel Legendre calculus.

    Derivatives, antiderivatives, and off-node evaluation all go through
    the panel Legendre coefficients, so sampled smooth functions keep
    spectral accuracy end to end.
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
        self.half = 0.5
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        self.z = (mids[:, None] + self.half * xg[None, :]).ravel()
        self.w = np.tile(self.half * wg, self.npan)
        self._xg = xg
        vand = npleg.legvander(xg, self.order - 1)
        self._to_coef = np.linalg.inv(vand)
        self._sub_x, self._sub_w = npleg.leggauss(_SUB_ORDER)

    # -- panel Legendre plumbing --

    def coeffs(self, vals) -> np.ndarray:
        vals = np.asarray(vals, dtype=complex).reshape(self.npan, self.order)
        return vals @ self._to_coef.T

    def _panel_of(self, zq) -> np.ndarray:
        idx = np.searchsorted(self.edges, zq, side="right") - 1
        return np.clip(idx, 0, self.npan - 1)

    def eval_coeffs(self, coef, zq):
        zq = np.asarray(zq, dtype=float)
        idx = self._panel_of(zq)
        out = np.empty(zq.shape, dtype=complex)
        for k in np.unique(idx):
            sel = idx == k
            xi = (zq[sel] - 0.5 * (self.edges[k] + self.edges[k + 1])) / self.half
            out[sel] = npleg.legval(xi, coef[k])
        return out

    def derivative(self, vals) -> np.ndarray:
        coef = self.coeffs(vals)
        out = np.empty((self.npan, self.order), dtype=complex)
        for k in range(self.npan):
            dcoef = npleg.legder(coef[k]) / self.half
            out[k] = npleg.legval(self._xg, dcoef)
        return out.ravel()

    def antiderivative(self, vals) -> np.ndarray:
        """Primitive vanishing at the right edge: -integral from z to hi."""
        coef = self.coeffs(vals)
        prim = np.empty((self.npan, self.order), dtype=complex)
        totals = np.empty(self.npan, dtype=complex)
        for k in range(self.npan):
            icoef = npleg.legint(coef[k]) * self.half
            base = npleg.legval(-1.0, icoef)
            prim[k] = npleg.legval(self._xg, icoef) - base
            totals[k] = npleg.legval(1.0, icoef) - base
        tail = np.concatenate([np.cumsum(totals[::-1])[::-1][1:], [0.0]])
        return (prim - totals[:, None] - tail[:, None]).ravel()

    def integral(self, vals) -> complex:
        return complex(np.dot(self.w, np.asarray(vals, dtype=complex)))


# ----- exponentially weighted cumulatives -----


def _exp_guard(q: complex, span: float) -> None:
    if abs(np.real(q)) * span > 650.0:
        raise RegionViolation(
            "exponential weight outruns the quadrature window; "
            f"|Re q| * span = {abs(np.real(q)) * span:.1f}"
        )


def exp_cumulative(grid: PanelGrid, vals, q: complex, side: str) -> np.ndarray:
    """At each node z return the weighted integral with kernel e^{q (z' - z)}.

    side "left" integrates z' over [lo, z]; side "right" over [z, hi].
    Every exponential is evaluated relative to the output point, so the
    only growth that can appear is growth present in the true integral.
    """
    vals = np.asarray(vals, dtype=complex)
    q = complex(q)
    _exp_guard(q, grid.hi - grid.lo)
    coef = grid.coeffs(vals)
    g = vals.reshape(grid.npan, grid.order)
    zg = grid.z.reshape(grid.npan, grid.order)
    wg = grid.w.reshape(grid.npan, grid.order)
    out = np.empty((grid.npan, grid.order), dtype=complex)
    sx, sw = grid._sub_x, grid._sub_w
    step = np.exp(-q)  # panel length is one

    if side == "left":
        # edge_acc[k]: integral over [lo, edges[k]] weighted to edges[k]
        edge_acc = np.empty(grid.npan, dtype=complex)
        acc = 0j
        for k in range(grid.npan):
            edge_acc[k] = acc
            panel = np.sum(wg[k] * np.exp(q * (zg[k] - grid.edges[k + 1])) * g[k])
            acc = acc * step + panel
        for k in range(grid.npan):
            zi = zg[k]
            carried = edge_acc[k] * np.exp(q * (grid.edges[k] - zi))
            lengths = zi - grid.edges[k]
            zsub = grid.edges[k] + lengths[:, None] * (sx[None, :] + 1.0) / 2.0
            gsub = grid.eval_coeffs(coef, zsub.ravel()).reshape(zsub.shape)
            local = np.sum(
                (lengths[:, None] / 2.0) * sw[None, :] * np.exp(q * (zsub - zi[:, None])) * gsub,
                axis=1,
            )
            out[k] = carried + local
        return out.ravel()

    if side == "right":
        # edge_acc[k]: integral over [edges[k+1], hi] weighted to edges[k+1]
        edge_acc = np.empty(grid.npan, dtype=complex)
        acc = 0j
        for k in range(grid.npan - 1, -1, -1):
            edge_acc[k] = acc
            panel = np.sum(wg[k] * np.exp(q * (zg[k] - grid.edges[k])) * g[k])
            acc = acc / step + panel
        for k in range(grid.npan):
            zi = zg[k]
            carried = edge_acc[k] * np.exp(q * (grid.edges[k + 1] - zi))
            lengths = grid.edges[k + 1] - zi
            zsub = zi[:, None] + lengths[:, None] * (sx[None, :] + 1.0) / 2.0
            gsub = grid.eval_coeffs(coef, zsub.ravel()).reshape(zsub.shape)
            local = np.sum(
                (lengths[:, None] / 2.0) * sw[None, :] * np.exp(q * (zsub - zi[:, None])) * gsub,
                axis=1,
            )
            out[k] = carried + local
        return out.ravel()

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
