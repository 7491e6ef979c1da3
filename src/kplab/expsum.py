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

ExpSum and Rational objects are never changed once built, so each keeps
what it derives from itself: an ExpSum its partials and its sorted,
read-only `arrays()`, a Rational its partials.  Nothing kept holds point
data.  Sums whose generator tuples already line up (equal, or one
starting the other) add and multiply without remapping their keys.
`worst_residual` evaluates each distinct ExpSum of an identity once.
"""
from __future__ import annotations

from functools import reduce
from math import comb, inf
from operator import add, mul
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


def _padded(terms: dict[tuple[int, ...], complex], extra: int):
    """The items of terms, each key followed by `extra` zeros."""
    if not extra:
        return terms.items()
    pad = (0,) * extra
    return [(k + pad, c) for k, c in terms.items()]


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
    """Finite exponential sum with exact phase-lattice merging.

    The generators in `gens` are distinct.  A sum is never changed after it
    is built, so it keeps its own partials and sorted arrays once asked.
    """

    __slots__ = ("gens", "terms", "_partials", "_arrays")

    def __init__(self, gens: tuple[Gen, ...], terms: dict[tuple[int, ...], complex]):
        self.gens = gens
        self.terms = {k: v for k, v in terms.items() if v != 0}
        self._partials = self._arrays = None

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
        """(terms, 3) phase vectors and the coefficients, in sorted key order.

        Built on the first call and kept; both arrays are read-only.
        """
        if self._arrays is None:
            items = sorted(self.terms.items())
            keys = np.asarray([k for k, _ in items], dtype=float)
            keys = keys.reshape(len(items), len(self.gens))
            gens = np.asarray(self.gens, dtype=complex).reshape(len(self.gens), 3)
            self._arrays = (keys @ gens, np.asarray([c for _, c in items], dtype=complex))
            for arr in self._arrays:
                arr.flags.writeable = False
        return self._arrays

    # ----- algebra -----

    def _operands(self, other: "ExpSum"):
        """Merged gens, self's items and other's items, keyed over the merged gens.

        When one operand's gens start the other's, the longer tuple is the
        merged one and the shorter operand's keys only gain trailing zeros.
        """
        ga, gb = self.gens, other.gens
        if ga[:len(gb)] == gb:
            gens = ga
        elif gb[:len(ga)] == ga:
            gens = gb
        else:
            gens, map_b = _unify(ga, gb)
            return (gens, _padded(self.terms, len(gens) - len(ga)),
                    [(_remap(k, map_b, len(gens)), c) for k, c in other.terms.items()])
        return (gens, _padded(self.terms, len(gens) - len(ga)),
                _padded(other.terms, len(gens) - len(gb)))

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
        get = acc.get
        for ka, ca in left:
            for kb, cb in right:
                key = tuple(map(add, ka, kb))
                acc[key] = get(key, 0) + ca * cb
        return ExpSum(gens, acc)

    # ----- calculus -----

    def _partial(self, axis: int) -> "ExpSum":
        """d/dx, d/dy or d/dt for axis 0, 1, 2; built on the first call and kept."""
        if self._partials is None:
            self._partials = [None, None, None]
        if self._partials[axis] is None:
            slopes = [g[axis] for g in self.gens]
            out: dict[tuple[int, ...], complex] = {}
            for key, c in self.terms.items():
                slope = complex(sum(k * g for k, g in zip(key, slopes)))
                if slope != 0 and c != 0:
                    out[key] = c * slope
            self._partials[axis] = ExpSum(self.gens, out)
        return self._partials[axis]

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


def _closure(orders, only) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """(computed, returned) multi-indices, graded; ValueError as `log_derivatives` says.

    The computed ones are the downward closure of the returned ones."""
    if len(orders) != 3 or not all(isinstance(n, (int, np.integer)) and n >= 0 for n in orders):
        raise ValueError(f"orders {tuple(orders)} is not three non-negative ints")
    box = multi_indices(orders)
    if only is None:
        return box, box
    wanted = {tuple(gamma) for gamma in only}
    if not wanted:
        raise ValueError("only names no partial")
    for gamma in wanted:
        if len(gamma) != 3 or not all(0 <= gamma[a] <= orders[a] for a in range(3)):
            raise ValueError(f"partial {gamma} lies outside the box {tuple(orders)}")
    closure = [g for g in box if any(all(a <= b for a, b in zip(g, w)) for w in wanted)]
    return closure, [g for g in closure if g in wanted]


def _recursion_plan(idx):
    """(r, [(weight, r_delta, r_rest)]) for each gamma = idx[r] past (0,0,0).

    gamma is split as beta + one unit step on its first nonzero axis; delta
    runs over the nonzero multi-indices below beta with binomial weights,
    rest is gamma - delta, and r_delta, r_rest are their positions in idx.
    Both lie below gamma, so a downward-closed idx holds them, and rest is
    never (0,0,0).
    """
    pos = {gamma: r for r, gamma in enumerate(idx)}
    plan = []
    for gamma in idx[1:]:
        axis = next(a for a in range(3) if gamma[a] > 0)
        beta = tuple(g - (a == axis) for a, g in enumerate(gamma))
        steps = [(comb(beta[0], delta[0]) * comb(beta[1], delta[1]) * comb(beta[2], delta[2]),
                  pos[delta], pos[tuple(gamma[a] - delta[a] for a in range(3))])
                 for delta in multi_indices(beta)[1:]]
        plan.append((pos[gamma], steps))
    return plan


def _dominant_groups(ex: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(d, points whose first largest exponent is row d) for each d that has points.

    A running comparison over the term rows gives np.argmax's index, NaN
    counting as the largest, without moving the term axis innermost.
    """
    dom = np.zeros(ex.shape[1], dtype=np.intp)
    best = ex[0].copy()
    for r in range(1, ex.shape[0]):
        take = ~(ex[r] <= best) & (best == best)
        dom[take] = r
        np.copyto(best, ex[r], where=take)
    groups = [(d, np.flatnonzero(dom == d)) for d in range(ex.shape[0])]
    return [(d, cols) for d, cols in groups if cols.size]


# Points per block of `log_derivatives`.  A block's scratch is two rows per
# computed partial (its term sum and its value): for the 17 partials behind
# the KP residual, 8192 points make 2.2 MB of float64, which stays in a
# 2 MB-class per-core L2 cache while the recursion sweeps it over 100 times.
BLOCK = 8192


def log_derivatives(tau: ExpSum, orders: tuple[int, int, int], x, y, t,
                    *, only=None) -> dict[tuple[int, int, int], np.ndarray]:
    """Mixed partials of log tau up to `orders`, on broadcast points.

    Points are grouped by which term carries the largest real exponent and
    all phases are recentered around that term before the quotient
    recursion runs.  That keeps the arithmetic overflow-free anywhere and,
    because the dominant term then has phase zero, leaves no large
    cancelling phase powers where a single exponential dominates.

    `orders` is three non-negative ints.  The result holds the whole
    `orders` box, or exactly the partials `only` names; each must lie in
    the box, else ValueError.  The recursion computes just the downward
    closure of the returned keys (every multi-index below one), so each
    value is the one the full box gives for the same key.  Each group runs
    in blocks of `BLOCK` points in preallocated scratch: beyond the
    returned arrays, the points, their (terms, N) exponents and grouping,
    the extra memory is one block's.

    When tau's phases and coefficients are real, the partials of order
    >= 1 are computed and returned in float64; otherwise in complex128.
    The (0,0,0) entry is always complex: the principal log of the
    recentered sum plus the dominant exponent, so exp of it is tau, and a
    real tau < 0 gives log|tau| + i pi.  Returns arrays shaped like the
    broadcast of (x, y, t).
    """
    if tau.is_zero():
        raise ZeroDivisionError("log derivative of the zero sum")
    idx, wanted = _closure(orders, only)
    plan = _recursion_plan(idx)
    ph, coeff = tau.arrays()  # (terms, 3) phases, (terms,) coefficients
    pts, shape = _points(x, y, t)
    if not (ph.imag.any() or coeff.imag.any()):
        ph, coeff = ph.real, coeff.real
    ex = ph @ pts.astype(ph.dtype, copy=False)
    del pts
    groups = _dominant_groups(ex.real)
    nterms, npts = ex.shape
    # point-major: a block gathers whole rows, and the vector-matrix product
    # over its transpose sums each point's terms in one order whatever the
    # block's length or place (over a term-major block it does not)
    ex = np.ascontiguousarray(ex.T)
    out = {gamma: np.empty(npts, dtype=complex if gamma == (0, 0, 0) else ph.dtype)
           for gamma in wanted}
    nb = min(BLOCK, npts)
    w_flat = np.empty(nterms * nb, dtype=ph.dtype)
    sums, g = np.empty((2, len(idx), nb), dtype=ph.dtype)
    top, tmp = np.empty((2, nb), dtype=ph.dtype)
    for d, cols in groups:
        q = ph - ph[d]  # dominant term recentered to phase zero
        # one vector-matrix product per partial: a matrix product over all
        # rows may round a row differently with the row count, and `only`
        # must not change any value
        vecs = [coeff * q[:, 0] ** i * q[:, 1] ** j * q[:, 2] ** k for i, j, k in idx]
        for start in range(0, cols.size, nb):
            block = cols[start:start + nb]
            n = block.size
            w = np.take(ex, block, axis=0, out=w_flat[:nterms * n].reshape(n, nterms),
                        mode="clip").T
            top[:n] = w[d]
            w -= top[:n]
            np.exp(w, out=w)
            for r, vec in enumerate(vecs):
                np.matmul(vec, w, out=sums[r, :n])
            s0 = sums[0, :n]
            for r, steps in plan:
                acc, first = g[r, :n], sums[r, :n]
                for weight, delta, rest in steps:
                    if weight == 1:
                        np.multiply(sums[delta, :n], g[rest, :n], out=tmp[:n])
                    else:
                        np.multiply(sums[delta, :n], weight, out=tmp[:n])
                        tmp[:n] *= g[rest, :n]
                    np.subtract(first, tmp[:n], out=acc)
                    first = acc
                np.divide(first, s0, out=acc)
            # first derivatives regain the recentering slope
            for axis, gamma in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
                if gamma in idx:
                    g[idx.index(gamma), :n] += ph[d, axis]
            for gamma, val in out.items():
                if gamma == (0, 0, 0):
                    val[block] = np.log(s0.astype(complex)) + top[:n]
                else:
                    val[block] = g[idx.index(gamma), :n]
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

    __slots__ = ("num", "den", "_partials")

    def __init__(self, num: ExpSum, den: dict[ExpSum, int] | None = None):
        self.num = num
        self.den = {} if den is None else den
        self._partials = None

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
        """d/dx, d/dy or d/dt for axis 0, 1, 2; built on the first call and kept."""
        if self._partials is None:
            self._partials = [None, None, None]
        if self._partials[axis] is not None:
            return self._partials[axis]
        if not self.den:
            out = Rational(self.num._partial(axis))
        else:
            bases = list(self.den)
            new_num = self.num._partial(axis) * reduce(mul, bases)
            for i, (base, power) in enumerate(self.den.items()):
                term = power * self.num * base._partial(axis)
                rest = bases[:i] + bases[i + 1:]
                if rest:
                    term = term * reduce(mul, rest)
                new_num = new_num - term
            out = Rational(new_num, {base: power + 1 for base, power in self.den.items()})
        self._partials[axis] = out
        return out

    def dx(self):
        return self._partial(0)

    def dy(self):
        return self._partial(1)

    def dt(self):
        return self._partial(2)

    # -- evaluation --

    def eval_scaled(self, x, y, t) -> tuple[np.ndarray, np.ndarray]:
        """Return (m, s) with value = s * exp(m); never overflows by itself."""
        return self._scaled_from(lambda e: e.eval_scaled(x, y, t))

    def _scaled_from(self, scaled) -> tuple[np.ndarray, np.ndarray]:
        """(m, s) of the quotient, given `scaled(e)`, the eval_scaled pair of each ExpSum."""
        m, s = scaled(self.num)
        for base, power in self.den.items():
            mb, sb = scaled(base)
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
    from `Ring`; a Carried has no sum); the level transforms read their
    nonlocal term dx^{-1} dy from ydxinv alone and reject a wave without it.
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
    No parts at all raise ValueError.

    Known limit: a part that is itself a small difference of large terms
    carries rounding error above the scale, so the ratio drifts up with
    those terms (as sample sets grow or move out) though the identity holds.
    """
    parts = iter(parts)
    try:
        total = np.asarray(next(parts))
    except StopIteration:
        raise ValueError("the identity has no parts") from None
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
    Each distinct ExpSum object among the parts, the numerators of Rational
    parts and their denominator bases is evaluated once per call, through
    `ExpSum.eval_scaled`; the pairs are dropped when the call returns.
    No parts at all raise ValueError.
    """
    pairs: dict[ExpSum, tuple[np.ndarray, np.ndarray]] = {}  # keyed by identity

    def scaled(e: ExpSum):
        if e not in pairs:
            pairs[e] = e.eval_scaled(*pts)
        return pairs[e]

    scaled_parts = [scaled(p) if isinstance(p, ExpSum)
                    else p._scaled_from(scaled) if isinstance(p, Rational)
                    else p.eval_scaled(*pts) for p in parts]
    if not scaled_parts:
        raise ValueError("the identity has no parts")
    top = reduce(np.maximum, (m for m, _ in scaled_parts))
    top = np.where(np.isneginf(top), 0.0, top)
    res, scale = sum_residual(s * np.exp(m - top) for m, s in scaled_parts)
    return float(np.max(res / scale))
