"""Exact finite sums of exponentials and rational combinations of them.

An ExpSum is sum_m c_m * exp(p_m . (x, y, t)) where every phase p_m is an
integer combination of a small set of generator 3-vectors.  Keeping the
integer keys (instead of floating phase vectors) makes merging of equal
phases exact no matter how a term was assembled, so products and derivatives
stay small.  Scaled evaluation factors out the largest real exponent, so the
(exponent, mantissa) pair never overflows; plain evaluation multiplies the
two back together and does overflow once the value itself passes about
1e308 (the P-type dual wave at beta = 1.7 times its tau ratio does near
x = -200).  Residuals therefore never multiply out: `worst_residual`
reduces the scaled pairs at their common largest exponent.

A Rational divides an ExpSum by powers of ExpSum bases held in a dict keyed
by base identity.  ExpSum, Rational, Carried and the line profiles of
`tanhexp` write only __add__ and __mul__; the `Ring` base derives the
reflected forms, negation, subtraction and scalar division from those.
"""
from __future__ import annotations

from functools import reduce
from math import comb, inf
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .errors import MissingPrimitive

Gen = tuple[complex, complex, complex]


def _unify(gens_a: tuple[Gen, ...], gens_b: tuple[Gen, ...]):
    """Merged generator tuple, which extends gens_a, and the index map of gens_b."""
    merged = list(gens_a)
    index = {g: i for i, g in enumerate(merged)}
    map_b = []
    for g in gens_b:
        if g not in index:
            index[g] = len(merged)
            merged.append(g)
        map_b.append(index[g])
    return tuple(merged), map_b


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


class Ring:
    """Operators derived from a subclass's own __add__ and __mul__.

    Both must accept a Python scalar on the right; everything else here
    (reflected forms, negation, subtraction, scalar division) reduces to
    them, so each algebra writes only its two ring operations.
    """

    __slots__ = ()

    # Called directly, not through the operator: a NotImplemented from the
    # forward method then reaches Python as a TypeError instead of bouncing
    # back to the other operand's reflected method.
    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / other)
        return NotImplemented


class ExpSum(Ring):
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

    def is_zero(self) -> bool:
        return not self.terms

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(terms, 3) phase vectors and the coefficients, in sorted key order."""
        items = sorted(self.terms.items())
        keys = np.asarray([k for k, _ in items], dtype=float).reshape(len(items), len(self.gens))
        gens = np.asarray(self.gens, dtype=complex).reshape(len(self.gens), 3)
        return keys @ gens, np.asarray([c for _, c in items], dtype=complex)

    # ----- algebra -----

    def _operands(self, other: "ExpSum"):
        """Merged gens, self's items and other's items, keyed over the merged gens."""
        gens, map_b = _unify(self.gens, other.gens)
        width = len(gens)
        pad = (0,) * (width - len(self.gens))
        left = [(k + pad, c) for k, c in self.terms.items()]
        right = [(_remap(k, map_b, width), c) for k, c in other.terms.items()]
        return gens, left, right

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ExpSum.constant(other)
        if not isinstance(other, ExpSum):
            return NotImplemented
        gens, left, right = self._operands(other)
        acc = dict(left)
        for k, c in right:
            acc[k] = acc.get(k, 0) + c
        return ExpSum(gens, acc)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return ExpSum(self.gens, {})
            return ExpSum(self.gens, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, ExpSum):
            return NotImplemented
        gens, left, right = self._operands(other)
        acc: dict[tuple[int, ...], complex] = {}
        for ka, ca in left:
            for kb, cb in right:
                key = tuple(a + b for a, b in zip(ka, kb))
                acc[key] = acc.get(key, 0) + ca * cb
        return ExpSum(gens, acc)

    # ----- calculus -----

    def _partial(self, axis: int) -> "ExpSum":
        slopes = [g[axis] for g in self.gens]
        out: dict[tuple[int, ...], complex] = {}
        for key, c in self.terms.items():
            slope = complex(sum(k * g for k, g in zip(key, slopes)))
            if slope != 0 and c != 0:
                out[key] = c * slope
        return ExpSum(self.gens, out)

    def dx(self):
        return self._partial(0)

    def dy(self):
        return self._partial(1)

    def dt(self):
        return self._partial(2)

    # ----- evaluation -----

    def eval_scaled(self, x, y, t) -> tuple[np.ndarray, np.ndarray]:
        """Return (m, s) with value = s * exp(m) and max real exponent m.

        Empty sums give m = -inf, s = 0 so exp(m) * s evaluates to 0.
        """
        pts, shape = _points(x, y, t)
        if not self.terms:
            return np.full(shape, -inf), np.zeros(shape, dtype=complex)
        ph, coeff = self.arrays()
        ex = ph @ pts.astype(complex)
        m = ex.real.max(axis=0)
        w = np.exp(ex - m)
        s = coeff @ w
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
    ph, coeff = tau.arrays()  # (terms, 3) phases, (terms,) coefficients
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


class Rational(Ring):
    """Quotient of an ExpSum by a product of powers of fixed ExpSum bases.

    `den` maps each base to its power.  ExpSum defines no __eq__, so the
    dict is keyed by base identity and keeps first-seen order; a den is
    shared between Rationals and never mutated, every merge copies it.
    Closed under +, -, *, scalar multiples, d/dx, d/dy, d/dt and division
    by an ExpSum base, which is everything the layered field constructions
    need.  Evaluation combines scaled pieces so numerator and denominator
    overflow cancel exactly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ExpSum, den: dict[ExpSum, int] | None = None):
        self.num = num
        self.den = {} if den is None else den

    @staticmethod
    def from_quotient(num: ExpSum, *bases: ExpSum) -> "Rational":
        den: dict[ExpSum, int] = {}
        for base in bases:
            den[base] = den.get(base, 0) + 1
        return Rational(num, den)

    @staticmethod
    def constant(c: complex) -> "Rational":
        return Rational(ExpSum.constant(c))

    # -- algebra --

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, ExpSum)):
            return Rational(self.num * other, self.den)
        if not isinstance(other, Rational):
            return NotImplemented
        den = dict(self.den)
        for base, power in other.den.items():
            den[base] = den.get(base, 0) + power
        return Rational(self.num * other.num, den)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Rational.constant(other)
        elif isinstance(other, ExpSum):
            other = Rational(other)
        if not isinstance(other, Rational):
            return NotImplemented
        den = dict(self.den)  # common denominator
        for base, power in other.den.items():
            den[base] = max(den.get(base, 0), power)

        def lift(r: Rational) -> ExpSum:
            num = r.num
            for base, power in den.items():
                for _ in range(power - r.den.get(base, 0)):
                    num = num * base
            return num

        return Rational(lift(self) + lift(other), den)

    def __truediv__(self, other):
        if isinstance(other, ExpSum):
            den = dict(self.den)
            den[other] = den.get(other, 0) + 1
            return Rational(self.num, den)
        return super().__truediv__(other)

    # -- calculus --

    def _partial(self, axis: int) -> "Rational":
        if not self.den:
            return Rational(self.num._partial(axis))
        bases = list(self.den)
        new_num = self.num._partial(axis) * reduce(mul, bases)
        for i, (base, power) in enumerate(self.den.items()):
            term = power * self.num * base._partial(axis)
            rest = bases[:i] + bases[i + 1:]
            if rest:
                term = term * reduce(mul, rest)
            new_num = new_num - term
        return Rational(new_num, {base: power + 1 for base, power in self.den.items()})

    def dx(self):
        return self._partial(0)

    def dy(self):
        return self._partial(1)

    def dt(self):
        return self._partial(2)

    # -- evaluation --

    def eval_scaled(self, x, y, t) -> tuple[np.ndarray, np.ndarray]:
        """Return (m, s) with value = s * exp(m); never overflows by itself."""
        m, s = self.num.eval_scaled(x, y, t)
        for base, power in self.den.items():
            mb, sb = base.eval_scaled(x, y, t)
            m = m - power * mb
            s = s / sb ** power
        return m, s

    def eval(self, x, y, t) -> np.ndarray:
        m, s = self.eval_scaled(x, y, t)
        return s * np.exp(m)


class Carried(Ring):
    """A function bundled with exact antiderivative data.

    value    : the function itself, a Rational in (x, y, t) or a TanhExp
               profile in the line coordinate z
    xprim    : an exact antiderivative in x (in z on a line), or None;
               on a line it is the one vanishing as z -> +infinity
    ydxinv   : exact dx^{-1} dy of the function, or None
    Scalar multiples scale all three (negation and scalar division follow
    from `Ring`; a Carried has no sum); the level transforms read the
    nonlocal term dx^{-1} dy from ydxinv, or else from dy of xprim.
    """

    __slots__ = ("value", "xprim", "ydxinv")

    def __init__(self, value, xprim=None, ydxinv=None):
        self.value = value
        self.xprim = xprim
        self.ydxinv = ydxinv

    def prim(self):
        """The carried antiderivative; MissingPrimitive when there is none."""
        if self.xprim is None:
            raise MissingPrimitive("carried function has no exact antiderivative")
        return self.xprim

    def __mul__(self, c) -> "Carried":
        if not isinstance(c, (int, float, complex)):
            return NotImplemented
        return Carried(self.value * c,
                       self.xprim * c if self.xprim is not None else None,
                       self.ydxinv * c if self.ydxinv is not None else None)


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


def worst_residual(parts, *pts) -> float:
    """Worst pointwise `sum_residual` ratio of parts at pts, (x, y, t) or z.

    Each part's `eval_scaled` pair (m, s) enters as s * exp(m - M), with M
    the per-point largest m (0 where every part is empty): a common factor
    the ratio does not see, so no value overflows however far out pts lie.
    """
    scaled = [p.eval_scaled(*pts) for p in parts]
    top = reduce(np.maximum, (m for m, _ in scaled))
    top = np.where(np.isneginf(top), 0.0, top)
    res, scale = sum_residual(s * np.exp(m - top) for m, s in scaled)
    return float(np.max(res / scale))
