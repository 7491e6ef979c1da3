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
by base identity; the sech^2 channel profiles of `darboux` are Rationals
too, in z = x.  ExpSum and Rational write only __add__, __mul__,
`_partial` and `eval_scaled`; the `Ring` base derives the reflected forms,
negation, subtraction, scalar division, dx, dy, dt and `eval` from those.
A `Carried` is a plain record, a function with its exact antiderivatives,
and has no arithmetic.

ExpSum and Rational objects are never changed once built, so each keeps
what it derives from itself: an ExpSum its partials and its sorted,
read-only `arrays()`, a Rational its partials.  The arrays are also kept
in a bounded memo keyed by content (generators and terms), so a sum built
again, equal to one evaluated before, skips building them.  Nothing kept
holds point data.  Sums whose generator tuples already line up (equal, or
one starting the other) add and multiply without remapping their keys.

Sums, products and scalar multiples build one dict each: they drop their
own zero terms and hand the dict to the sum they return, while the public
`ExpSum(gens, terms)` copies and filters.  Evaluation computes in float64
when a sum's phases and coefficients are all real and in complex128
otherwise (`ExpSum.arrays()` decides, once per content), and builds its
(3, N) point stack in place in that dtype.
`worst_residual` evaluates each distinct ExpSum of an identity once.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain
from math import comb, inf
from operator import mul
from typing import Sequence

import numpy as np

from .errors import ConfigMismatch, MissingPrimitive

Gen = tuple[complex, complex, complex]


@lru_cache(maxsize=256)
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
    return tuple(merged), tuple(map_b)


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


@lru_cache(maxsize=16)
def _key_adder(width: int):
    """f(a, b) = the elementwise sum of two keys of `width` ints, unrolled."""
    body = "".join(f"a[{i}] + b[{i}], " for i in range(width))
    return eval(f"lambda a, b: ({body})")  # the source holds only digits and names


def _nonzero(acc: dict[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    """acc with its zero coefficients deleted in place; NaN is kept."""
    if 0 in acc.values():
        for key in [k for k, c in acc.items() if c == 0]:
            del acc[key]
    return acc


@lru_cache(maxsize=1024)
def _sorted_arrays(gens: tuple[Gen, ...], items: tuple) -> tuple[np.ndarray, np.ndarray]:
    """`ExpSum.arrays()` of the sum on gens with the sorted (key, coefficient) items."""
    width = len(gens)
    lattice = np.fromiter(chain.from_iterable(k for k, _ in items), dtype=float,
                          count=len(items) * width)
    ph = lattice.reshape(len(items), width) @ np.asarray(gens, dtype=complex).reshape(width, 3)
    coeff = np.fromiter((c for _, c in items), dtype=complex, count=len(items))
    if not (ph.imag.any() or coeff.imag.any()):
        ph, coeff = ph.real, coeff.real
    ph.flags.writeable = coeff.flags.writeable = False
    return ph, coeff


def _points(x, y, t, dtype=float) -> tuple[np.ndarray, tuple[int, ...]]:
    """(3, N) stack of the broadcast point set in `dtype`, and its shape.

    Mismatched shapes raise ValueError (from np.broadcast).
    """
    shape = np.broadcast(x, y, t).shape
    pts = np.empty((3,) + shape, dtype=dtype)
    pts[0], pts[1], pts[2] = x, y, t
    return pts.reshape(3, -1), shape


class Ring:
    """Operators derived from a subclass's own __add__, __mul__, _partial
    and eval_scaled.

    __add__ and __mul__ must accept a Python scalar on the right; the
    reflected forms, negation, subtraction and scalar division reduce to
    them.  `_partial(axis)` is d/dx, d/dy or d/dt for axis 0, 1, 2, and
    `eval_scaled` returns (m, s) with value s * exp(m); dx, dy, dt and
    `eval` reduce to those.  So each algebra writes only these four.
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

    def dx(self):
        return self._partial(0)

    def dy(self):
        return self._partial(1)

    def dt(self):
        return self._partial(2)

    def eval(self, x, y, t) -> np.ndarray:
        """The value s * exp(m) of `eval_scaled`; unlike the pair, it
        overflows once the value passes about 1e308."""
        m, s = self.eval_scaled(x, y, t)
        return s * np.exp(m)


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

    @classmethod
    def _of(cls, gens: tuple[Gen, ...], terms: dict[tuple[int, ...], complex]) -> "ExpSum":
        """A sum that takes over `terms`, which hold no zero coefficient."""
        out = object.__new__(cls)
        out.gens, out.terms = gens, terms
        out._partials = out._arrays = None
        return out

    # ----- constructors -----

    @staticmethod
    def constant(c: complex) -> "ExpSum":
        return ExpSum((), {(): complex(c)} if c != 0 else {})

    @staticmethod
    def exponential(coeff: complex, gen: Gen) -> "ExpSum":
        return ExpSum((gen,), {(1,): complex(coeff)} if coeff != 0 else {})

    # ----- structure -----

    def is_zero(self) -> bool:
        return not self.terms

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(terms, 3) phase vectors and the coefficients, in sorted key order.

        Both are float64 when every phase and coefficient has zero
        imaginary part, else both complex128; evaluation computes in that
        dtype.  Both arrays are read-only.  Kept on the sum after the first
        call, and shared by content: sums with equal generators and equal
        terms, built apart, get the same arrays through a bounded memo.
        """
        if self._arrays is None:
            self._arrays = _sorted_arrays(self.gens, tuple(sorted(self.terms.items())))
        return self._arrays

    # ----- algebra -----

    def _operands(self, other: "ExpSum"):
        """Merged gens, self's items and other's items, keyed over the merged gens.

        When one operand's gens start the other's, the longer tuple is the
        merged one and the shorter operand's keys only gain trailing zeros.
        """
        ga, gb = self.gens, other.gens
        if ga is gb:
            return ga, self.terms.items(), other.terms.items()
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
        get = acc.get
        for k, c in right:
            acc[k] = get(k, 0) + c
        return ExpSum._of(gens, _nonzero(acc))

    def __mul__(self, other):
        if isinstance(other, ExpSum):
            gens, left, right = self._operands(other)
            acc: dict[tuple[int, ...], complex] = {}
            get = acc.get
            plus = _key_adder(len(gens))
            for ka, ca in left:
                for kb, cb in right:
                    key = plus(ka, kb)
                    acc[key] = get(key, 0) + ca * cb
            return ExpSum._of(gens, _nonzero(acc))
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return ExpSum._of(self.gens, {})
            return ExpSum._of(self.gens, _nonzero({k: c * other for k, c in self.terms.items()}))
        return NotImplemented

    # ----- calculus -----

    def _partial(self, axis: int) -> "ExpSum":
        """d/dx, d/dy or d/dt for axis 0, 1, 2; built on the first call and kept."""
        if self._partials is None:
            self._partials = [None, None, None]
        if self._partials[axis] is None:
            slopes = [g[axis] for g in self.gens]
            out: dict[tuple[int, ...], complex] = {}
            for key, c in self.terms.items():
                slope = complex(sum(map(mul, key, slopes)))
                if slope != 0:
                    out[key] = c * slope
            self._partials[axis] = ExpSum._of(self.gens, _nonzero(out))
        return self._partials[axis]

    # ----- evaluation -----

    def eval_scaled(self, x, y, t) -> tuple[np.ndarray, np.ndarray]:
        """Return (m, s) with value = s * exp(m) and max real exponent m.

        Computed in the dtype of `arrays()`, so s is float64 for a real sum
        and complex128 otherwise.  Empty sums give m = -inf, s = 0 so
        exp(m) * s evaluates to 0.
        """
        ph, coeff = self.arrays()
        pts, shape = _points(x, y, t, ph.dtype)
        if not self.terms:
            return np.full(shape, -inf), np.zeros(shape)
        ex = ph @ pts
        m = ex.real.max(axis=0)
        w = np.exp(ex - m)
        s = coeff @ w
        return m.reshape(shape), s.reshape(shape)


def multi_indices(orders: tuple[int, int, int]):
    """All (i, j, k) with componentwise i<=orders[0], etc., graded order."""
    out = [(i, j, k)
           for i in range(orders[0] + 1)
           for j in range(orders[1] + 1)
           for k in range(orders[2] + 1)]
    out.sort(key=lambda a: (sum(a), a))
    return out


def _plan(orders, only):
    """(computed, returned, recursion plan) of `log_derivatives`; ValueError as it says.

    The computed multi-indices are the downward closure of the returned
    ones, both graded.  The three are kept per canonical (orders, only),
    so a repeated call validates `orders` and hashes `only`, nothing more.
    """
    if len(orders) != 3 or not all(isinstance(n, (int, np.integer)) and n >= 0 for n in orders):
        raise ValueError(f"orders {tuple(orders)} is not three non-negative ints")
    wanted = None if only is None else frozenset(tuple(gamma) for gamma in only)
    return _closure_plan(tuple(int(n) for n in orders), wanted)


@lru_cache(maxsize=64)
def _closure_plan(orders: tuple[int, int, int], wanted: frozenset | None):
    """`_plan` for valid orders; a ValueError raised here is not kept."""
    box = tuple(multi_indices(orders))
    if wanted is None:
        return box, box, _recursion_plan(box)
    if not wanted:
        raise ValueError("only names no partial")
    for gamma in wanted:
        if len(gamma) != 3 or not all(0 <= gamma[a] <= orders[a] for a in range(3)):
            raise ValueError(f"partial {gamma} lies outside the box {orders}")
    closure = tuple(g for g in box if any(all(a <= b for a, b in zip(g, w)) for w in wanted))
    return closure, tuple(g for g in closure if g in wanted), _recursion_plan(closure)


def _recursion_plan(idx):
    """(r, ((weight, r_delta, r_rest), ...)) for each gamma = idx[r] past (0,0,0).

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
        steps = tuple((comb(beta[0], delta[0]) * comb(beta[1], delta[1]) * comb(beta[2], delta[2]),
                       pos[delta], pos[tuple(gamma[a] - delta[a] for a in range(3))])
                      for delta in multi_indices(beta)[1:])
        plan.append((pos[gamma], steps))
    return tuple(plan)


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


# Points per block of `log_derivatives`.  Per point, a block's scratch holds
# the terms' exponentials, two values per computed partial (its term sum and
# its quotient) and two spare values: 40 float64 for the KP residual (4-term
# taus, 17 partials), so 16384 points make 5.2 MB.  With the residual
# reduced per block, the median of two 384^2 residuals (the `kp_grid` op;
# 2-core x86-64, 2 MB L2 per core; October 2026, five processes each) read
# 15-20, 17-19, 13-19, 16-23 and 13-16 ms at 4096, 8192, 16384, 32768 and
# 65536 points: only 65536 may be faster, for four times the scratch.
BLOCK = 16384


def log_derivatives(tau: ExpSum, orders: tuple[int, int, int], x, y, t,
                    *, only=None, reduce=None) -> dict:
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
    in blocks of `BLOCK` points, gathered from the term-major exponents
    into preallocated scratch.  `reduce`, if given, maps each block's
    partials (a dict of 1-D arrays, valid only during the call; with no
    points, one call on empty ones) to a dict of 1-D arrays of the block's
    length, which the result holds instead.  Beyond the stored arrays, the
    memory that grows with the N points is: the (3, N) point stack, freed
    once the (terms, N) exponents are built from it; those exponents, the
    only copy; the groups' point indices (N intp, plus two N-sized arrays
    while the groups are found); and one block's scratch, (terms + 2 *
    computed partials + 2) * `BLOCK` values in tau's dtype.

    When tau's phases and coefficients are real, the partials of order
    >= 1 are computed and returned in float64; otherwise in complex128.
    The (0,0,0) entry is always complex: the principal log of the
    recentered sum plus the dominant exponent, so exp of it is tau, and a
    real tau < 0 gives log|tau| + i pi.  Returns arrays shaped like the
    broadcast of (x, y, t).
    """
    if tau.is_zero():
        raise ZeroDivisionError("log derivative of the zero sum")
    idx, wanted, plan = _plan(orders, only)
    ph, coeff = tau.arrays()  # (terms, 3) phases, (terms,) coefficients
    pts, shape = _points(x, y, t, ph.dtype)
    ex = ph @ pts  # (terms, N), term-major
    del pts
    groups = _dominant_groups(ex.real) or [(0, np.empty(0, np.intp))]  # no points: one empty block
    nterms, npts = ex.shape
    rows = [(gamma, idx.index(gamma)) for gamma in wanted]  # row 0 is (0,0,0)
    slopes = [(idx.index(gamma), axis) for axis, gamma in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
              if gamma in idx]
    nb = max(min(BLOCK, npts), 1)
    w_flat = np.empty(nterms * nb, dtype=ph.dtype)
    sums, g = np.empty((2, len(idx), nb), dtype=ph.dtype)
    top, tmp = np.empty((2, nb), dtype=ph.dtype)
    views, out = {}, None
    for d, cols in groups:
        q = ph - ph[d]  # dominant term recentered to phase zero
        # one vector-matrix product per partial: a matrix product over all
        # rows may round a row differently with the row count, and `only`
        # must not change any value
        vecs = [coeff * q[:, 0] ** i * q[:, 1] ** j * q[:, 2] ** k for i, j, k in idx]
        for start in range(0, cols.size or 1, nb):
            block = cols[start:start + nb]
            n = block.size
            if n not in views:  # scratch views and recursion operands, bound once per length
                gn, sn = list(g[:, :n]), list(sums[:, :n])
                steps_n = [(gn[r], sn[r], [(c, sn[a], gn[b]) for c, a, b in steps])
                           for r, steps in plan]
                views[n] = w_flat[:nterms * n].reshape(nterms, n), top[:n], tmp[:n], sn, gn, steps_n
            w, top_n, tmp_n, sn, gn, steps_n = views[n]
            # a C-contiguous (terms, n) block, so each product reads whole
            # rows; it may round a point differently with the block's length
            # and the point's place in it, never with `only` or the shape of
            # the points
            np.take(ex, block, axis=1, out=w, mode="clip")
            top_n[...] = w[d]
            w -= top_n
            np.exp(w, out=w)
            for vec, s in zip(vecs, sn):
                np.matmul(vec, w, out=s)
            s0 = sn[0]
            for acc, first, steps in steps_n:
                for weight, s_delta, g_rest in steps:
                    if weight == 1:
                        np.multiply(s_delta, g_rest, out=tmp_n)
                    else:
                        np.multiply(s_delta, weight, out=tmp_n)
                        tmp_n *= g_rest
                    np.subtract(first, tmp_n, out=acc)
                    first = acc
                np.divide(first, s0, out=acc)
            # first derivatives regain the recentering slope
            for r, axis in slopes:
                gn[r] += ph[d, axis]
            parts = {gamma: gn[r] if r else np.log(s0.astype(complex)) + top_n for gamma, r in rows}
            res = parts if reduce is None else reduce(parts)
            if out is None:
                out = {key: np.empty(npts, dtype=val.dtype) for key, val in res.items()}
            for key, val in res.items():
                out[key][block] = val
    return {key: val.reshape(shape) for key, val in out.items()}


# ----- rational combinations -----


class Rational(Ring):
    """Quotient of an ExpSum by a product of powers of fixed ExpSum bases.

    `den` maps each base to its power.  ExpSum defines no __eq__, so the
    dict is keyed by base identity and keeps first-seen order; a den is
    shared between Rationals and never mutated, every merge copies it.
    Closed under +, -, *, scalar multiples, d/dx, d/dy and d/dt, which is
    everything the layered field constructions need; `from_quotient` puts
    ExpSum bases under a numerator.  Evaluation combines scaled pieces so
    numerator and denominator overflow cancel exactly.
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
            other = Rational(ExpSum.constant(other))
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
                term = (-power * self.num) * base._partial(axis)
                rest = bases[:i] + bases[i + 1:]
                if rest:
                    term = term * reduce(mul, rest)
                new_num = new_num + term
            out = Rational(new_num, {base: power + 1 for base, power in self.den.items()})
        self._partials[axis] = out
        return out

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


class Carried:
    """A function bundled with exact antiderivative data: a record, not a ring.

    value    : the function itself, a Rational in (x, y, t); a channel
               profile is one in z = x, at y = t = 0
    xprim    : an exact antiderivative in x, or None; for a channel
               profile it is the one vanishing as z -> +infinity
    ydxinv   : exact dx^{-1} dy of the function, or None
    It has no sum and no scalar multiple; a caller that scales one builds
    a new record from its scaled fields.  The level transforms read their
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
    """Worst pointwise `sum_residual` ratio of ExpSum and Rational parts at (x, y, t).

    Each part's `eval_scaled` pair (m, s) enters as s * exp(m - M), with M
    the per-point largest m (0 where every part is empty): a common factor
    the ratio does not see, so no value overflows however far out pts lie.
    Each distinct ExpSum object among the parts, the numerators of Rational
    parts and their denominator bases is evaluated once per call, through
    `ExpSum.eval_scaled`; the pairs are dropped when the call returns.
    pts must be the three point arrays x, y, t, else ConfigMismatch; no
    parts at all raise ValueError.
    """
    if len(pts) != 3:
        raise ConfigMismatch(f"residuals need the three point arrays x, y, t; got {len(pts)}")
    return _worst_residual(parts, pts, {})


def _worst_residual(parts, pts: tuple, bases: dict) -> float:
    """`worst_residual` of parts at pts, sharing den-base pairs through `bases`.

    `bases` maps denominator bases, by identity, to their pairs at these
    same pts: a base found there is not evaluated again, and one evaluated
    here is added.  A caller that reduces many identities on one point set
    passes one dict to each, so a base is evaluated once over them all.
    """
    dens = {base for p in parts if isinstance(p, Rational) for base in p.den}
    pairs: dict[ExpSum, tuple[np.ndarray, np.ndarray]] = {}  # keyed by identity

    def scaled(e: ExpSum):
        pair = bases.get(e)
        if pair is None:
            pair = pairs.get(e)
            if pair is None:
                pair = e.eval_scaled(*pts)
                (bases if e in dens else pairs)[e] = pair
        return pair

    scaled_parts = [scaled(p) if isinstance(p, ExpSum) else p._scaled_from(scaled)
                    for p in parts]
    if not scaled_parts:
        raise ValueError("the identity has no parts")
    top = reduce(np.maximum, (m for m, _ in scaled_parts))
    top = np.where(np.isneginf(top), 0.0, top)
    res, scale = sum_residual(s * np.exp(m - top) for m, s in scaled_parts)
    return float(np.max(res / scale))
