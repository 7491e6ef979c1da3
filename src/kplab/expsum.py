"""Exact finite sums of exponentials and rational combinations of them.

An ExpSum is sum_m c_m * exp(p_m . (x, y, t)) where every phase p_m is an
integer combination of a small set of generator 3-vectors.  Keeping the
integer keys (instead of floating phase vectors) makes merging of equal
phases exact no matter how a term was assembled, so products and derivatives
stay small.  Scaled evaluation factors out the largest real exponent, so the
(exponent, mantissa) pair never overflows; plain evaluation multiplies the
two back together and does overflow once the value itself passes about
1e308.  For the P-type dual wave at beta = 1.7 times its tau ratio that
happens near x = -200, where `Rational.eval` returns inf + nan*j and the
level-shift residual dual_step_two reads NaN.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf
from typing import Iterable, Sequence

import numpy as np

Gen = tuple[complex, complex, complex]

_AXES = {"x": 0, "y": 1, "t": 2}


def _unify(gens_a: tuple[Gen, ...], gens_b: tuple[Gen, ...]):
    """Merged generator tuple plus index maps for both operands."""
    merged = list(gens_a)
    index = {g: i for i, g in enumerate(merged)}
    map_b = []
    for g in gens_b:
        if g not in index:
            index[g] = len(merged)
            merged.append(g)
        map_b.append(index[g])
    return tuple(merged), list(range(len(gens_a))), map_b


def _remap(key: tuple[int, ...], mapping: Sequence[int], width: int) -> tuple[int, ...]:
    out = [0] * width
    for pos, count in zip(mapping, key):
        out[pos] += count
    return tuple(out)


def _points(x, y, t) -> tuple[np.ndarray, tuple[int, ...]]:
    """(3, N) float stack of the broadcast point set, and its shape."""
    x, y, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float),
                                  np.asarray(t, dtype=float))
    return np.stack([x.ravel(), y.ravel(), t.ravel()]), x.shape


class ExpSum:
    """Finite exponential sum with exact phase-lattice merging."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: tuple[Gen, ...], terms: dict[tuple[int, ...], complex]):
        self.gens = gens
        self.terms = {k: v for k, v in terms.items() if v != 0}

    # ----- constructors -----

    @staticmethod
    def constant(c: complex) -> "ExpSum":
        return ExpSum((), {(): complex(c)} if c != 0 else {})

    @staticmethod
    def exponential(coeff: complex, gen: Gen) -> "ExpSum":
        return ExpSum((gen,), {(1,): complex(coeff)} if coeff != 0 else {})

    @staticmethod
    def from_terms(gens: tuple[Gen, ...], items: Iterable[tuple[tuple[int, ...], complex]]) -> "ExpSum":
        acc: dict[tuple[int, ...], complex] = {}
        for key, c in items:
            acc[key] = acc.get(key, 0) + c
        return ExpSum(gens, acc)

    # ----- structure -----

    @property
    def nterms(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_items(self):
        return sorted(self.terms.items())

    def key_matrix(self) -> np.ndarray:
        keys = [k for k, _ in self.sorted_items()]
        if not keys:
            return np.zeros((0, len(self.gens)))
        return np.asarray(keys, dtype=float)

    def coeff_vector(self) -> np.ndarray:
        return np.asarray([c for _, c in self.sorted_items()], dtype=complex)

    def gen_matrix(self) -> np.ndarray:
        if not self.gens:
            return np.zeros((0, 3), dtype=complex)
        return np.asarray(self.gens, dtype=complex)

    def phase_matrix(self) -> np.ndarray:
        """Per-term phase 3-vectors, rows aligned with sorted_items()."""
        return self.key_matrix() @ self.gen_matrix()

    # ----- algebra -----

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ExpSum.constant(other)
        if not isinstance(other, ExpSum):
            return NotImplemented
        gens, map_a, map_b = _unify(self.gens, other.gens)
        width = len(gens)
        acc: dict[tuple[int, ...], complex] = {}
        for key, c in self.terms.items():
            acc[_remap(key, map_a, width)] = c
        for key, c in other.terms.items():
            k = _remap(key, map_b, width)
            acc[k] = acc.get(k, 0) + c
        return ExpSum(gens, acc)

    __radd__ = __add__

    def __neg__(self):
        return ExpSum(self.gens, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ExpSum.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return ExpSum.constant(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return ExpSum(self.gens, {})
            return ExpSum(self.gens, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, ExpSum):
            return NotImplemented
        gens, map_a, map_b = _unify(self.gens, other.gens)
        width = len(gens)
        left = [(_remap(k, map_a, width), c) for k, c in self.terms.items()]
        right = [(_remap(k, map_b, width), c) for k, c in other.terms.items()]
        acc: dict[tuple[int, ...], complex] = {}
        for ka, ca in left:
            for kb, cb in right:
                key = tuple(a + b for a, b in zip(ka, kb))
                acc[key] = acc.get(key, 0) + ca * cb
        return ExpSum(gens, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not exponential sums")
        out = ExpSum.constant(1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # ----- calculus -----

    def _partial(self, axis: int) -> "ExpSum":
        gm = self.gen_matrix()[:, axis] if self.gens else np.zeros(0, dtype=complex)
        out: dict[tuple[int, ...], complex] = {}
        for key, c in self.terms.items():
            slope = complex(sum(k * g for k, g in zip(key, gm)))
            if slope != 0 and c != 0:
                out[key] = c * slope
        return ExpSum(self.gens, out)

    def dx(self):
        return self._partial(0)

    def dy(self):
        return self._partial(1)

    def dt(self):
        return self._partial(2)

    def partial(self, i: int = 0, j: int = 0, k: int = 0) -> "ExpSum":
        out = self
        for _ in range(i):
            out = out.dx()
        for _ in range(j):
            out = out.dy()
        for _ in range(k):
            out = out.dt()
        return out

    # ----- evaluation -----

    def _exponents(self, x, y, t) -> tuple[np.ndarray, tuple[int, ...]]:
        """Exponent matrix (terms x points) on the broadcast point set."""
        pts, shape = _points(x, y, t)
        return self.phase_matrix() @ pts.astype(complex), shape

    def eval_scaled(self, x, y, t) -> tuple[np.ndarray, np.ndarray]:
        """Return (m, s) with value = s * exp(m) and max real exponent m.

        Empty sums give m = -inf, s = 0 so exp(m) * s evaluates to 0.
        """
        if not self.terms:
            x, y, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float), np.asarray(t, float))
            return np.full(x.shape, -inf), np.zeros(x.shape, dtype=complex)
        ex, shape = self._exponents(x, y, t)
        m = ex.real.max(axis=0)
        w = np.exp(ex - m)
        s = self.coeff_vector() @ w
        return m.reshape(shape), s.reshape(shape)

    def eval(self, x, y, t) -> np.ndarray:
        m, s = self.eval_scaled(x, y, t)
        return s * np.exp(m)


def multi_indices(orders: tuple[int, int, int]):
    """All (i, j, k) with componentwise i<=orders[0], etc., graded order."""
    out = [(i, j, k)
           for i in range(orders[0] + 1)
           for j in range(orders[1] + 1)
           for k in range(orders[2] + 1)]
    out.sort(key=lambda a: (sum(a), a))
    return out


def _downward_closure(orders: tuple[int, int, int], only) -> list[tuple[int, int, int]]:
    """Multi-indices of the `orders` box lying below some entry of `only`."""
    box = multi_indices(orders)
    if only is None:
        return box
    wanted = [tuple(gamma) for gamma in only]
    if not wanted:
        raise ValueError("only names no partial")
    for gamma in wanted:
        if len(gamma) != 3 or not all(0 <= gamma[a] <= orders[a] for a in range(3)):
            raise ValueError(f"partial {gamma} lies outside the box {tuple(orders)}")
    return [g for g in box if any(all(a <= b for a, b in zip(g, w)) for w in wanted)]


def _recursion_plan(idx):
    """(gamma, [(weight, delta, gamma - delta)]) for each gamma of idx past (0,0,0).

    gamma is split as beta + one unit step on its first nonzero axis; delta
    runs over the nonzero multi-indices below beta with binomial weights.
    Every delta and gamma - delta lies below gamma, so a downward-closed idx
    holds them all.
    """
    plan = []
    for gamma in idx[1:]:
        axis = next(a for a in range(3) if gamma[a] > 0)
        beta = tuple(g - (a == axis) for a, g in enumerate(gamma))
        steps = [(comb(beta[0], delta[0]) * comb(beta[1], delta[1]) * comb(beta[2], delta[2]),
                  delta, tuple(gamma[a] - delta[a] for a in range(3)))
                 for delta in multi_indices(beta)[1:]]
        plan.append((gamma, steps))
    return plan


def log_derivatives(tau: ExpSum, orders: tuple[int, int, int], x, y, t,
                    *, only=None) -> dict[tuple[int, int, int], np.ndarray]:
    """Mixed partials of log tau up to `orders`, on broadcast points.

    Points are grouped by which term carries the largest real exponent and
    all phases are recentered around that term before the quotient
    recursion runs.  That keeps the arithmetic overflow-free anywhere and,
    because the dominant term then has phase zero, leaves no large
    cancelling phase powers where a single exponential dominates.

    `only`, when given, lists the partials the caller reads; each must lie
    in the `orders` box, else ValueError.  Then only their downward
    closure (every multi-index below some entry) is computed and returned.
    The recursion reads nothing outside that closure, so each value is the
    one the full box gives for the same key.

    When tau's phases and coefficients are real, the partials of order
    >= 1 are computed and returned in float64; otherwise in complex128.
    The (0,0,0) entry is always complex: the principal log of the
    recentered sum plus the dominant exponent, so exp of it is tau, and a
    real tau < 0 gives log|tau| + i pi.  Returns arrays shaped like the
    broadcast of (x, y, t).
    """
    if tau.is_zero():
        raise ZeroDivisionError("log derivative of the zero sum")
    idx = _downward_closure(orders, only)
    plan = _recursion_plan(idx)
    ph = tau.phase_matrix()  # (terms, 3)
    coeff = tau.coeff_vector()
    pts, shape = _points(x, y, t)
    if not (ph.imag.any() or coeff.imag.any()):
        ph, coeff = ph.real, coeff.real
    ex = ph @ pts.astype(ph.dtype)
    npts = ex.shape[1]
    out = {gamma: np.empty(npts, dtype=ph.dtype) for gamma in idx}
    out[(0, 0, 0)] = np.empty(npts, dtype=complex)
    dom = np.argmax(ex.real, axis=0) if len(coeff) > 1 else np.zeros(npts, dtype=int)
    for d in np.unique(dom):
        cols = np.nonzero(dom == d)[0]
        q = ph - ph[d]  # dominant term recentered to phase zero
        w = np.exp(ex[:, cols] - ex[d, cols])
        # one vector-matrix product per partial: a matrix product over all
        # rows may round a row differently with the row count, and `only`
        # must not change any value
        spart = {(i, j, k): (coeff * q[:, 0] ** i * q[:, 1] ** j * q[:, 2] ** k) @ w
                 for i, j, k in idx}
        s0 = spart[(0, 0, 0)]
        g = {(0, 0, 0): np.log(s0.astype(complex)) + ex[d, cols]}
        for gamma, steps in plan:
            acc = spart[gamma].copy()
            for weight, delta, rest in steps:
                acc -= weight * spart[delta] * g[rest]
            g[gamma] = acc / s0
        # first derivatives regain the recentering slope
        for axis, gamma in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            if gamma in g:
                g[gamma] = g[gamma] + ph[d, axis]
        for gamma in idx:
            out[gamma][cols] = g[gamma]
    return {key: val.reshape(shape) for key, val in out.items()}


# ----- rational combinations -----


@dataclass(frozen=True)
class _Denom:
    bases: tuple[tuple[ExpSum, int], ...]  # first-seen order, identity-merged

    @staticmethod
    def empty() -> "_Denom":
        return _Denom(())

    def mul(self, other: "_Denom") -> "_Denom":
        out = list(self.bases)
        for base, power in other.bases:
            for i, (b, p) in enumerate(out):
                if b is base:
                    out[i] = (b, p + power)
                    break
            else:
                out.append((base, power))
        return _Denom(tuple(out))

    def bump_all(self) -> "_Denom":
        return _Denom(tuple((b, p + 1) for b, p in self.bases))

    def append(self, base: ExpSum, power: int = 1) -> "_Denom":
        return self.mul(_Denom(((base, power),)))


class Rational:
    """Quotient of an ExpSum by a product of powers of fixed ExpSum bases.

    Closed under +, -, *, scalar multiples, d/dx, d/dy, d/dt and division by
    a registered base, which is everything the layered field constructions
    need.  Evaluation combines scaled pieces so numerator and denominator
    overflow cancel exactly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ExpSum, den: _Denom | None = None):
        self.num = num
        self.den = den or _Denom.empty()

    @staticmethod
    def from_quotient(num: ExpSum, *bases: ExpSum) -> "Rational":
        den = _Denom.empty()
        for b in bases:
            den = den.append(b)
        return Rational(num, den)

    @staticmethod
    def constant(c: complex) -> "Rational":
        return Rational(ExpSum.constant(c))

    # -- helpers --

    def _den_product(self) -> ExpSum:
        prod = ExpSum.constant(1.0)
        for base, _ in self.den.bases:
            prod = prod * base
        return prod

    def _complement(self, skip: int) -> ExpSum:
        prod = ExpSum.constant(1.0)
        for i, (base, _) in enumerate(self.den.bases):
            if i != skip:
                prod = prod * base
        return prod

    # -- algebra --

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Rational(self.num * other, self.den)
        if isinstance(other, ExpSum):
            return Rational(self.num * other, self.den)
        if not isinstance(other, Rational):
            return NotImplemented
        return Rational(self.num * other.num, self.den.mul(other.den))

    __rmul__ = __mul__

    def __neg__(self):
        return Rational(-self.num, self.den)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Rational.constant(other)
        elif isinstance(other, ExpSum):
            other = Rational(other)
        if not isinstance(other, Rational):
            return NotImplemented
        # common denominator over identity-matched bases
        merged: list[tuple[ExpSum, int]] = list(self.den.bases)
        for base, power in other.den.bases:
            for i, (b, p) in enumerate(merged):
                if b is base:
                    merged[i] = (b, max(p, power))
                    break
            else:
                merged.append((base, power))
        den = _Denom(tuple(merged))

        def lift(r: Rational) -> ExpSum:
            num = r.num
            for base, power in den.bases:
                have = 0
                for b, p in r.den.bases:
                    if b is base:
                        have = p
                        break
                for _ in range(power - have):
                    num = num * base
            return num

        return Rational(lift(self) + lift(other), den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Rational.constant(other)
        elif isinstance(other, ExpSum):
            other = Rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return Rational.constant(other) + (-self)

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return Rational(self.num * (1.0 / other), self.den)
        if isinstance(other, ExpSum):
            return Rational(self.num, self.den.append(other))
        return NotImplemented

    def div_base(self, base: ExpSum, power: int = 1) -> "Rational":
        return Rational(self.num, self.den.append(base, power))

    # -- calculus --

    def _partial(self, axis: int) -> "Rational":
        if not self.den.bases:
            return Rational(self.num._partial(axis))
        full = self._den_product()
        new_num = self.num._partial(axis) * full
        for i, (base, power) in enumerate(self.den.bases):
            new_num = new_num - power * self.num * base._partial(axis) * self._complement(i)
        return Rational(new_num, self.den.bump_all())

    def dx(self):
        return self._partial(0)

    def dy(self):
        return self._partial(1)

    def dt(self):
        return self._partial(2)

    # -- evaluation --

    def eval(self, x, y, t) -> np.ndarray:
        m, s = self.num.eval_scaled(x, y, t)
        for base, power in self.den.bases:
            mb, sb = base.eval_scaled(x, y, t)
            m = m - power * mb
            s = s / sb ** power
        return s * np.exp(m)


class Carried:
    """A function bundled with exact antiderivative data.

    value    : the function itself
    xprim    : an exact d/dx antiderivative, or None
    ydxinv   : exact dx^{-1} dy of the function, or None
    Scalar multiples scale all three; the level transforms read the
    nonlocal term dx^{-1} dy from ydxinv, or else from dy of xprim.
    """

    __slots__ = ("value", "xprim", "ydxinv")

    def __init__(self, value: Rational, xprim: Rational | None = None, ydxinv: Rational | None = None):
        self.value = value
        self.xprim = xprim
        self.ydxinv = ydxinv

    def __mul__(self, c) -> "Carried":
        if not isinstance(c, (int, float, complex)):
            return NotImplemented
        return Carried(self.value * c,
                       self.xprim * c if self.xprim is not None else None,
                       self.ydxinv * c if self.ydxinv is not None else None)

    __rmul__ = __mul__


# ----- relative residuals -----


def sum_residual(parts) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise |sum of parts| and the largest |part|, floored at 1e-300.

    The evaluated parts of an identity add to zero; its relative residual
    is the ratio of the two arrays.  NaN in any part is NaN in both, so an
    np.max of the ratio reports it.  Parts are accumulated, never stacked.

    Known limit: a part that is itself a small difference of large terms
    carries rounding error above the scale, so the ratio drifts up with
    those terms (as sample sets grow or move out) though the identity holds.
    """
    parts = iter(parts)
    total = np.asarray(next(parts))
    scale = np.abs(total)
    for part in parts:
        total = total + part
        scale = np.maximum(scale, np.abs(part))
    return np.abs(total), np.maximum(scale, 1e-300)
