"""Exactness and stability checks for the exponential-sum engine."""
from __future__ import annotations

import struct
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kplab import expsum
from kplab.errors import MissingPrimitive
from kplab.expsum import (BLOCK, Carried, ExpSum, Rational, _unify, log_derivatives,
                          sum_residual, worst_residual)
from kplab.darboux import bump_profile, identity_report
from kplab.solitons import SolitonConfig, build_tau

G1 = (1.0 + 0j, 1.0 + 0j, -1.0 + 0j)
G2 = (2.0 + 0j, 4.0 + 0j, -8.0 + 0j)
G3 = (-0.5 + 0j, 0.25 + 0j, 0.125 + 0j)


def _pts(rng, n=40, span=3.0):
    return (rng.uniform(-span, span, n), rng.uniform(-span, span, n), rng.uniform(-span, span, n))


# ----- ExpSum algebra -----


def test_merge_is_exact_across_assembly_orders():
    a = ExpSum.exponential(1.0, G1)
    b = ExpSum.exponential(1.0, G2)
    c = ExpSum.exponential(1.0, G3)
    left = (a * b) * c
    right = a * (b * c)
    diff = left - right
    assert diff.is_zero()


def test_difference_of_squares_cancels_exactly():
    a = ExpSum.exponential(1.0, G1)
    b = ExpSum.exponential(1.0, G2)
    prod = (a - b) * (a + b)
    assert len(prod.terms) == 2
    baseline = a * a - b * b
    assert (prod - baseline).is_zero()


# The operators as straightforward loops over remapped keys, each result
# passed through the public constructor, which copies and drops zeros.
# Subtraction is the sum with the scalar multiple by -1.0.


def _loop_operands(a: ExpSum, b: ExpSum):
    gens = a.gens + tuple(g for g in b.gens if g not in a.gens)

    def keyed(s: ExpSum):
        pos = [gens.index(g) for g in s.gens]
        out = []
        for k, c in s.terms.items():
            key = [0] * len(gens)
            for p, n in zip(pos, k):
                key[p] += n
            out.append((tuple(key), c))
        return out

    return gens, keyed(a), keyed(b)


def _loop_add(a: ExpSum, b: ExpSum) -> ExpSum:
    gens, left, right = _loop_operands(a, b)
    acc = dict(left)
    for k, c in right:
        acc[k] = acc.get(k, 0) + c
    return ExpSum(gens, acc)


def _loop_scale(a: ExpSum, c) -> ExpSum:
    if c == 0:
        return ExpSum(a.gens, {})
    return ExpSum(a.gens, {k: v * c for k, v in a.terms.items()})


def _loop_sub(a: ExpSum, b: ExpSum) -> ExpSum:
    return _loop_add(a, _loop_scale(b, -1.0))


def _loop_mul(a: ExpSum, b: ExpSum) -> ExpSum:
    gens, left, right = _loop_operands(a, b)
    acc = {}
    for ka, ca in left:
        for kb, cb in right:
            key = tuple(x + y for x, y in zip(ka, kb))
            acc[key] = acc.get(key, 0) + ca * cb
    return ExpSum(gens, acc)


def _bits(s: ExpSum):
    """gens, and each key with its coefficient's bytes, in insertion order."""
    return s.gens, [(k, struct.pack("<dd", c.real, c.imag)) for k, c in s.terms.items()]


POOL = tuple((complex(k), complex(k * k), complex(-k ** 3)) for k in (-2.0, -1.0, 0.5, 1.5, 3.0))
_coeffs = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@st.composite
def _aligned_operands(draw):
    """Two sums whose gens are equal, one a prefix of the other, or permuted."""
    n = draw(st.integers(0, len(POOL)))
    gens = tuple(draw(st.permutations(POOL))[:n])
    how = draw(st.sampled_from(["equal", "second_is_prefix", "first_is_prefix", "permuted"]))
    cut = draw(st.integers(0, n))
    other = {"equal": gens, "second_is_prefix": gens[:cut], "first_is_prefix": gens[:cut],
             "permuted": tuple(draw(st.permutations(gens)))}[how]
    first, second = (other, gens) if how == "first_is_prefix" else (gens, other)

    def build(g):
        keys = st.tuples(*[st.integers(0, 2)] * len(g))
        return ExpSum(g, draw(st.dictionaries(keys, _coeffs, max_size=6)))

    return build(first), build(second)


@settings(max_examples=150, deadline=None)
@given(_aligned_operands(), st.sampled_from(["+", "*"]))
def test_aligned_operands_match_the_remapped_reference(operands, op):
    """Operands whose gens line up skip `_unify`; the result is the remapped one exactly."""
    a, b = operands
    ref = _loop_add(a, b) if op == "+" else _loop_mul(a, b)
    aligned = a.gens[:len(b.gens)] == b.gens or b.gens[:len(a.gens)] == a.gens
    with mock.patch.object(expsum, "_unify", wraps=_unify) as unify:
        out = a + b if op == "+" else a * b
    assert unify.called != aligned
    assert _bits(out) == _bits(ref)


WIDE_POOL = tuple((complex(k), complex(k * k), complex(-k ** 3))
                  for k in (-2.5, -2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0))
NAN = complex(float("nan"), 0.0)
# small exact values make cancellations likely; 1e-200 squared underflows to 0
_lean_coeffs = st.one_of(
    st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5j, -0.5j, 1.0 + 1.0j]).map(complex),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    st.just(complex(1e-200, -1e-200)), st.just(NAN))


@st.composite
def _operand_pairs(draw):
    """Two sums of width 0-7 whose gens are the same tuple, equal, a prefix
    either way, permuted or partly shared; the second may mirror the first."""
    n, m = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    gens = tuple(draw(st.permutations(WIDE_POOL))[:n])
    rest = tuple(g for g in draw(st.permutations(WIDE_POOL)) if g not in gens)
    how = draw(st.sampled_from(["same", "equal", "prefix", "extends", "permuted", "overlap"]))
    other = {"same": gens, "equal": tuple(list(gens)), "prefix": gens[:m],
             "extends": (gens + rest)[:max(n, m)],
             "permuted": tuple(draw(st.permutations(gens))),
             "overlap": (gens[:m // 2] + rest)[:m]}[how]

    def build(g):
        keys = st.tuples(*[st.integers(-2, 2)] * len(g))
        return ExpSum(g, draw(st.dictionaries(keys, _lean_coeffs, max_size=6)))

    a = build(gens)
    if how == "same" and draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        b = ExpSum(gens, {k: sign * c for k, c in a.terms.items() if draw(st.booleans())})
    else:
        b = build(other)
    return (b, a) if draw(st.booleans()) else (a, b)


_tau = ExpSum.exponential(1.0, G1) + ExpSum.exponential(-1.0, G2)
_nan_sum = ExpSum((G1,), {(1,): NAN, (0,): 1.0 + 0j})


@settings(max_examples=300, deadline=None)
@given(_operand_pairs(), st.sampled_from([0, 0.0, -1.0, 2, 0.5 - 1.5j, 1e-200, float("nan")]))
@example((_tau, _tau), -1.0)  # every term cancels in a - b
@example((_tau, ExpSum.exponential(1.0, G1) + ExpSum.exponential(1.0, G2)), 2)  # (a-b)(a+b)
@example((ExpSum.constant(2.0), ExpSum((), {})), 0)
@example((_nan_sum, _tau), float("nan"))
def test_lean_operators_match_the_loop_definitions(operands, scalar):
    """+, -, * and scalar * give the loops' keys, key order and coefficient bits."""
    a, b = operands
    for out, ref in ((a + b, _loop_add(a, b)), (a - b, _loop_sub(a, b)),
                     (a * b, _loop_mul(a, b)), (a * scalar, _loop_scale(a, scalar)),
                     (scalar * b, _loop_scale(b, scalar))):
        assert _bits(out) == _bits(ref)
        assert out.terms is not a.terms and out.terms is not b.terms
        assert 0 not in out.terms.values()


def test_lean_operators_drop_cancelled_terms_and_keep_nan():
    a, b = _tau, ExpSum.exponential(1.0, G1) + ExpSum.exponential(1.0, G2)
    assert (a - a).is_zero() and (a + (-1.0) * a).is_zero()
    assert len((a * b).terms) == 2  # the cross terms cancel exactly
    assert (1e-200 * ExpSum.constant(1e-200)).is_zero()
    kept = _nan_sum * 2.0
    assert np.isnan(kept.terms[(1,)]) and len(kept.terms) == 2


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    s = ExpSum.exponential(1.3, G1) + ExpSum.exponential(0.7, G2) + ExpSum.exponential(-0.2, G3)
    x, y, t = _pts(rng, n=12, span=1.0)
    h = 1e-6
    for axis, d in (("x", s.dx()), ("y", s.dy()), ("t", s.dt())):
        shift = {"x": (h, 0, 0), "y": (0, h, 0), "t": (0, 0, h)}[axis]
        fd = (s.eval(x + shift[0], y + shift[1], t + shift[2])
              - s.eval(x - shift[0], y - shift[1], t - shift[2])) / (2 * h)
        assert np.max(np.abs(d.eval(x, y, t) - fd)) < 1e-7 * max(1.0, np.max(np.abs(fd)))


def test_points_broadcast_in_place():
    x, y = np.linspace(-1.0, 1.0, 4)[:, None], np.linspace(0.0, 2.0, 3)[None, :]
    pts, shape = expsum._points(x, y, 0.3)
    xs, ys = np.broadcast_arrays(x, y)
    assert shape == (4, 3) and pts.dtype == float
    assert np.array_equal(pts, np.stack([xs.ravel(), ys.ravel(), np.full(12, 0.3)]))
    pts, shape = expsum._points(0.1, np.float64(0.2), np.array(0.3), complex)
    assert shape == () and pts.dtype == complex
    assert np.array_equal(pts, [[0.1], [0.2], [0.3]])
    same = np.arange(6.0).reshape(2, 3)
    pts, shape = expsum._points(same, -same, same + 1.0)
    assert shape == (2, 3) and np.array_equal(pts, np.stack([same, -same, same + 1.0]).reshape(3, 6))
    with pytest.raises(ValueError):
        expsum._points(np.zeros(3), np.zeros(4), 0.0)


def test_scaled_eval_on_a_grid_matches_the_flat_and_per_point_calls():
    tau = _mixed_tau()[1]
    x, y = np.linspace(-3.0, 3.0, 7)[:, None], np.linspace(-2.0, 2.0, 5)[None, :]
    m, s = tau.eval_scaled(x, y, 0.37)
    assert m.shape == s.shape == (7, 5)
    xs, ys = np.broadcast_arrays(x, y)
    flat = tau.eval_scaled(xs.ravel(), ys.ravel(), np.full(35, 0.37))
    assert m.ravel().tobytes() == flat[0].tobytes() and s.ravel().tobytes() == flat[1].tobytes()
    # a product with one point column may round apart by an ulp or two
    for i, j in np.ndindex(7, 5):
        mi, si = tau.eval_scaled(xs[i, j], ys[i, j], 0.37)
        assert mi.shape == si.shape == ()
        assert abs(mi - m[i, j]) <= 4 * np.spacing(abs(m[i, j]))
        assert abs(si - s[i, j]) <= 4 * np.spacing(abs(s[i, j]))
    m0, s0 = tau.eval_scaled(0.1, 0.2, 0.3)
    assert m0.shape == s0.shape == ()
    with pytest.raises(ValueError):
        tau.eval_scaled(np.zeros(3), np.zeros(4), 0.0)
    m, s = ExpSum((), {}).eval_scaled(x, y, 0.37)
    assert m.shape == (7, 5) and np.all(np.isneginf(m)) and not s.any()


def test_scaled_eval_survives_huge_exponents():
    s = ExpSum.exponential(2.0, (10.0 + 0j, 100.0 + 0j, -1000.0 + 0j)) + ExpSum.constant(1.0)
    m, sc = s.eval_scaled(1.0e3, 1.0e3, 0.0)
    assert np.isfinite(sc).all()
    assert m == 110000.0
    g = log_derivatives(s, (2, 0, 0), 1.0e3, 1.0e3, 0.0)
    # far from the crossover the log derivative saturates at the phase slope
    assert abs(g[(1, 0, 0)] - 10.0) < 1e-12


# ----- log-derivative engine -----


def test_log_derivatives_against_quotient_expansion():
    rng = np.random.default_rng(5)
    tau = (ExpSum.exponential(0.9, G1) + ExpSum.exponential(1.4, G2)
           + ExpSum.exponential(0.33, G3) + ExpSum.constant(0.5))
    x, y, t = _pts(rng, n=25, span=1.5)
    g = log_derivatives(tau, (3, 1, 0), x, y, t)

    def ratio(i, j, k):
        part = tau
        for axis, n in zip(("dx", "dy", "dt"), (i, j, k)):
            for _ in range(n):
                part = getattr(part, axis)()
        return part.eval(x, y, t) / tau.eval(x, y, t)

    r100, r200, r300 = ratio(1, 0, 0), ratio(2, 0, 0), ratio(3, 0, 0)
    r010, r110, r210 = ratio(0, 1, 0), ratio(1, 1, 0), ratio(2, 1, 0)
    expect = {
        (1, 0, 0): r100,
        (2, 0, 0): r200 - r100 ** 2,
        (3, 0, 0): r300 - 3 * r200 * r100 + 2 * r100 ** 3,
        (0, 1, 0): r010,
        (1, 1, 0): r110 - r100 * r010,
        (2, 1, 0): r210 - r200 * r010 - 2 * r110 * r100 + 2 * r100 ** 2 * r010,
    }
    for key, val in expect.items():
        assert np.max(np.abs(g[key] - val)) < 1e-11, key


def _mixed_tau():
    """The real tau of the quotient-expansion test, and one with complex phases."""
    real = (ExpSum.exponential(0.9, G1) + ExpSum.exponential(1.4, G2)
            + ExpSum.exponential(0.33, G3) + ExpSum.constant(0.5))
    cplx = real + ExpSum.exponential(0.7, (0.4 + 1.1j, -0.3 + 0.5j, 0.2 - 0.6j))
    return real, cplx


def test_only_returns_the_closure_bit_for_bit():
    rng = np.random.default_rng(13)
    x, y, t = _pts(rng, n=60, span=4.0)
    orders = (4, 2, 2)
    box = set(product(range(5), range(3), range(3)))
    sets = ([(2, 0, 0)], [(1, 2, 0), (3, 0, 1)], [(0, 0, 2), (4, 0, 0)],
            [(2, 0, 0), (3, 0, 0), (4, 0, 0), (3, 0, 1), (2, 2, 0)], [orders])
    for tau in _mixed_tau():
        full = log_derivatives(tau, orders, x, y, t)
        assert set(full) == box
        for only in sets:
            got = log_derivatives(tau, orders, x, y, t, only=only)
            assert set(got) == set(only), only
            for key, val in got.items():
                assert val.dtype == full[key].dtype
                assert np.array_equal(val, full[key]), (only, key)


def test_only_outside_the_box_is_rejected():
    tau = _mixed_tau()[0]
    # the valid calls fill the plan cache; (1.0, 0, 0) hashes like (1, 0, 0)
    log_derivatives(tau, (1, 0, 0), 0.1, 0.2, 0.3)
    log_derivatives(tau, (1, 0, 0), 0.1, 0.2, 0.3, only=[(0, 0, 0)])
    for _ in range(2):  # a rejected plan is not kept
        for only in ([(5, 0, 0)], [(2, 0, 0), (0, 3, 0)], [(0, 0, 3)], [(-1, 0, 0)], []):
            with pytest.raises(ValueError):
                log_derivatives(tau, (4, 2, 2), 0.1, 0.2, 0.3, only=only)
        for orders in ((-1, 0, 0), (2, 0, -3), (2, 0), (2, 0, 0, 0), (1.5, 0, 0), (1.0, 0, 0)):
            for only in (None, [(0, 0, 0)]):
                with pytest.raises(ValueError):
                    log_derivatives(tau, orders, 0.1, 0.2, 0.3, only=only)


def test_plan_is_kept_per_canonical_request():
    tau = _mixed_tau()[1]
    rng = np.random.default_rng(29)
    x, y, t = _pts(rng, n=20, span=3.0)
    want = log_derivatives(tau, (3, 2, 1), x, y, t, only=((2, 0, 0), (1, 2, 1)))
    hits = expsum._closure_plan.cache_info().hits
    # a list of lists in another order names the same plan
    got = log_derivatives(tau, [3, 2, 1], x, y, t, only=[[1, 2, 1], [2, 0, 0]])
    assert expsum._closure_plan.cache_info().hits == hits + 1
    assert set(got) == set(want)
    for key, val in got.items():
        assert np.array_equal(val, want[key]), key


def test_grid_points_match_the_same_points_flat():
    for tau in _mixed_tau():
        xs = np.linspace(-5.0, 5.0, 150)
        ys = np.linspace(-4.0, 4.0, 130)
        x, y = np.meshgrid(xs, ys, indexing="ij")
        grid = log_derivatives(tau, (3, 2, 1), xs[:, None], ys[None, :], 0.4)
        flat = log_derivatives(tau, (3, 2, 1), x.ravel(), y.ravel(), 0.4)
        for key, val in grid.items():
            assert val.shape == x.shape
            assert np.array_equal(val.ravel(), flat[key]), key


def _wide_points(tau, n):
    """n seeded points at which every term of tau is the dominant one somewhere."""
    rng = np.random.default_rng(31)
    x, y, t = _pts(rng, n=n, span=6.0)
    ph, _ = tau.arrays()
    dom = np.argmax(ph.real @ np.stack([x, y, t]), axis=0)
    counts = np.bincount(dom, minlength=len(ph))
    assert counts.min() > 0 and counts.max() > BLOCK
    return x, y, t


def test_blocks_match_per_slice_calls():
    for tau in _mixed_tau():
        x, y, t = _wide_points(tau, 3 * BLOCK + 37)
        full = log_derivatives(tau, (3, 2, 1), x, y, t)
        for start in range(0, x.size, 1000):
            cut = slice(start, start + 1000)
            part = log_derivatives(tau, (3, 2, 1), x[cut], y[cut], t[cut])
            for key, val in part.items():
                err = np.max(np.abs(full[key][cut] - val))
                assert err <= 1e-13 * np.max(np.abs(val)), (key, start, err)


def test_nan_point_is_nan_in_every_partial_there_only():
    for tau in _mixed_tau():
        x, y, t = _wide_points(tau, 3 * BLOCK + 37)
        x[[5, BLOCK + 7]] = np.nan
        t[2 * BLOCK - 1] = np.nan
        bad = np.isnan(x) | np.isnan(t)
        only = [(0, 0, 0), (1, 0, 0), (3, 0, 1), (2, 2, 0)]
        with np.errstate(invalid="ignore"):  # complex division flags NaN operands
            got = log_derivatives(tau, (3, 2, 1), x, y, t, only=only)
        for key, val in got.items():
            assert np.array_equal(np.isnan(val), bad), key


def test_no_points_give_the_whole_box_empty():
    for tau in _mixed_tau():
        dtype = tau.arrays()[0].dtype
        g = log_derivatives(tau, (2, 1, 1), np.empty((0, 1)), np.zeros((1, 4)), 0.0)
        assert list(g) == expsum.multi_indices((2, 1, 1))
        for key, val in g.items():
            assert val.shape == (0, 4), key
            assert val.dtype == (np.complex128 if key == (0, 0, 0) else dtype), key


def test_reduce_maps_each_block_into_the_result():
    tau = _mixed_tau()[1]
    x, y, t = _wide_points(tau, 3 * BLOCK + 37)
    only = [(0, 0, 0), (2, 0, 1)]
    sizes = []

    def halve(parts):
        assert list(parts) == only
        sizes.append(parts[(2, 0, 1)].size)
        return {"half": parts[(2, 0, 1)] / 2, "log": parts[(0, 0, 0)]}

    full = log_derivatives(tau, (2, 0, 1), x, y, t, only=only)
    got = log_derivatives(tau, (2, 0, 1), x, y, t, only=only, reduce=halve)
    assert list(got) == ["half", "log"]
    assert got["half"].tobytes() == (full[(2, 0, 1)] / 2).tobytes()
    assert got["log"].tobytes() == full[(0, 0, 0)].tobytes()
    assert sum(sizes) == x.size and max(sizes) == BLOCK and len(sizes) > len(tau.terms)
    sizes.clear()
    empty = log_derivatives(tau, (2, 0, 1), np.empty((0, 3)), 0.0, 0.0, only=only, reduce=halve)
    assert sizes == [0]
    assert empty["half"].shape == empty["log"].shape == (0, 3)


def test_real_tau_runs_in_float64_and_agrees_with_rotated_tau():
    rng = np.random.default_rng(19)
    x, y, t = _pts(rng, n=50, span=4.0)
    tau = _mixed_tau()[0]
    g = log_derivatives(tau, (3, 2, 1), x, y, t)
    h = log_derivatives(1j * tau, (3, 2, 1), x, y, t)
    assert g[(0, 0, 0)].dtype == h[(0, 0, 0)].dtype == np.complex128
    for key in g:
        if key == (0, 0, 0):
            continue
        assert g[key].dtype == np.float64, key
        assert h[key].dtype == np.complex128, key
        # log(i tau) - log(tau) is constant, so every partial agrees
        assert np.max(np.abs(h[key] - g[key])) <= 1e-12 * np.max(np.abs(g[key])), key


def test_evaluation_dtype_follows_the_phases():
    rng = np.random.default_rng(23)
    x, y, t = _pts(rng, n=40, span=3.0)
    tau = build_tau(SolitonConfig("p_type", (-2.0, -1.0, 0.5, 3.0)))
    turned = 1j * tau
    assert all(arr.dtype == np.float64 for arr in tau.arrays())
    assert all(arr.dtype == np.complex128 for arr in turned.arrays())
    # a complex phase alone is enough
    wave = ExpSum.exponential(1.0, (1.0 + 0.5j, 0j, 0j)) + ExpSum.constant(2.0)
    assert all(arr.dtype == np.complex128 for arr in wave.arrays())
    m, s = tau.eval_scaled(x, y, t)
    mi, si = turned.eval_scaled(x, y, t)
    assert s.dtype == np.float64 and si.dtype == np.complex128
    assert np.all(np.abs(mi - m) <= 4 * np.spacing(np.abs(m)))
    assert np.all(np.abs(si - 1j * s) <= 4 * np.spacing(np.abs(s)))
    m, s = ExpSum((), {}).eval_scaled(x, y, t)
    assert s.dtype == np.float64 and not s.any()


def test_log_value_of_real_tau_that_changes_sign():
    tau = ExpSum.exponential(1.0, (1.0 + 0j, 0j, 0j)) - 2.0
    x = np.array([-1.0, 0.0, 0.3, 1.0])
    g = log_derivatives(tau, (1, 0, 0), x, 0.0, 0.0)
    assert np.all(np.isfinite(g[(0, 0, 0)]))
    assert np.max(np.abs(np.exp(g[(0, 0, 0)]) - (np.exp(x) - 2.0))) < 1e-14
    assert abs(g[(0, 0, 0)][1] - 1j * np.pi) < 1e-15
    assert np.max(np.abs(g[(1, 0, 0)] - np.exp(x) / (np.exp(x) - 2.0))) < 1e-13


def test_log_value_entry():
    tau = ExpSum.exponential(3.0, G1) + ExpSum.constant(1.0)
    g = log_derivatives(tau, (0, 0, 0), 0.3, -0.2, 0.1)
    assert abs(np.exp(g[(0, 0, 0)]) - tau.eval(0.3, -0.2, 0.1)) < 1e-12


# ----- residual primitive -----


def test_sum_residual_propagates_nan_from_any_part():
    ok = np.array([1.0, -2.0, 3.0])
    bad = np.array([1.0, np.nan, 3.0])
    for parts in ([bad, -ok, ok], [ok, -ok, bad]):
        res, scale = sum_residual(parts)
        ratio = res / scale
        assert np.isnan(ratio[1]) and np.isnan(np.max(ratio))
        assert np.all(np.isfinite(ratio[[0, 2]]))


def test_sum_residual_of_zero_parts_is_zero():
    res, scale = sum_residual([np.zeros(4), np.zeros(4)])
    assert np.all(res / scale == 0.0)
    assert np.all(scale == 1e-300)


def test_an_identity_without_parts_is_rejected():
    x = np.array([0.3, -1.0])
    for empty in ([], iter([])):
        with pytest.raises(ValueError, match="no parts"):
            sum_residual(empty)
    with pytest.raises(ValueError, match="no parts"):
        worst_residual([], x, 0.0, 0.0)


def test_sum_residual_scales_by_largest_part():
    res, scale = sum_residual(iter([np.array([3.0 + 4j]), np.array([-1.0]), np.array([-2.0])]))
    assert res[0] == 4.0 and scale[0] == 5.0


def _line_parts():
    """tau^2 / tau - tau = 0 for tau = e^x + 1, as a Rational and an ExpSum."""
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    return [Rational.from_quotient(tau * tau, tau), -1.0 * tau]


@pytest.mark.parametrize("where", [0, 1, 2])
def test_worst_residual_propagates_nan_from_any_part(where):
    parts = _line_parts() + [ExpSum.constant(0.0)]
    parts[where] = parts[where] + ExpSum.constant(np.nan)
    assert np.isnan(worst_residual(parts, np.array([0.3, -1.0]), 0.0, 0.0))


def test_worst_residual_of_empty_parts_is_zero():
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    parts = [ExpSum.constant(0.0), Rational.from_quotient(ExpSum.constant(0.0), tau)]
    assert worst_residual(parts, np.array([0.3, 800.0]), 0.0, 0.0) == 0.0


def test_worst_residual_past_float_range_is_finite():
    parts = _line_parts()
    x = np.array([-900.0, 0.0, 750.0, 2000.0])
    m, _ = parts[0].eval_scaled(x, 0.0, 0.0)
    assert m[-1] > 1000.0  # the value itself is far past 1e308
    ratio = worst_residual(parts, x, 0.0, 0.0)
    assert np.isfinite(ratio) and ratio < 1e-15


def test_kept_arrays_are_read_only_and_evaluate_as_a_fresh_copy():
    rng = np.random.default_rng(17)
    x, y, t = _pts(rng, n=30, span=3.0)
    for tau in (build_tau(SolitonConfig("p_type", (-2.0, -1.0, 0.5, 3.0))), _mixed_tau()[1]):
        ph, coeff = tau.arrays()
        assert tau.arrays()[0] is ph
        for arr in (ph, coeff):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        fresh = ExpSum(tau.gens, dict(tau.terms))
        for got, want in zip(tau.eval_scaled(x, y, t), fresh.eval_scaled(x, y, t)):
            assert np.array_equal(got, want)
        kept = log_derivatives(tau, (3, 1, 1), x, y, t)
        rebuilt = log_derivatives(ExpSum(tau.gens, dict(tau.terms)), (3, 1, 1), x, y, t)
        for key, val in kept.items():
            assert np.array_equal(val, rebuilt[key]), key


def test_content_equal_sums_share_their_arrays():
    tau = build_tau(SolitonConfig("o_type", (-2.0, -1.0, 1.0, 2.0)))
    twin = ExpSum(tau.gens, dict(reversed(list(tau.terms.items()))))
    assert twin is not tau
    assert all(a is b for a, b in zip(twin.arrays(), tau.arrays()))
    key = next(iter(tau.terms))
    recoef = ExpSum(tau.gens, {**tau.terms, key: tau.terms[key] * 1.5})
    regen = ExpSum(tau.gens[:-1] + ((7.0 + 0j, 0j, 0j),), dict(tau.terms))
    for other in (recoef, regen):
        ph, coeff = other.arrays()
        assert ph is not tau.arrays()[0] and coeff is not tau.arrays()[1]
    assert not np.array_equal(recoef.arrays()[1], tau.arrays()[1])
    assert not np.array_equal(regen.arrays()[0], tau.arrays()[0])
    for arr in twin.arrays():
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_array_memo_is_bounded():
    size = expsum._sorted_arrays.cache_info().maxsize
    for n in range(size + 50):
        ExpSum.exponential(1.0 + n, G1).arrays()
    assert expsum._sorted_arrays.cache_info().currsize <= size


def test_report_is_the_same_with_a_cold_memo():
    warm = identity_report(seed=7, npts=16)
    expsum._sorted_arrays.cache_clear()
    cold = identity_report(seed=7, npts=16)
    assert repr(cold) == repr(warm)
    assert repr(identity_report(seed=7, npts=16)) == repr(warm)


def test_carried_prim_requires_primitive():
    bump = bump_profile(0.5625)
    with pytest.raises(MissingPrimitive):
        Carried(bump.value).prim()


# ----- Rational layer -----


def test_rational_quotient_rule_against_finite_differences():
    rng = np.random.default_rng(7)
    tau = ExpSum.exponential(1.0, G1) + ExpSum.exponential(2.0, G2) + ExpSum.constant(1.0)
    sig = ExpSum.exponential(0.5, G3) + ExpSum.constant(2.0)
    r = Rational.from_quotient(tau.dx(), tau, sig)
    x, y, t = _pts(rng, n=10, span=1.0)
    h = 1e-6
    for dr, shift in ((r.dx(), (h, 0, 0)), (r.dy(), (0, h, 0)), (r.dt(), (0, 0, h))):
        fd = (r.eval(x + shift[0], y + shift[1], t + shift[2])
              - r.eval(x - shift[0], y - shift[1], t - shift[2])) / (2 * h)
        assert np.max(np.abs(dr.eval(x, y, t) - fd)) < 2e-7 * max(1.0, np.max(np.abs(fd)))


def test_rational_without_denominator_differentiates_its_numerator():
    r = Rational(ExpSum.exponential(2.0, (1.5, 0, 0)))
    assert not r.den
    got = r.dx().eval(np.array([0.3]), 0.0, 0.0)
    assert abs(got[0] - 3.0 * np.exp(0.45)) < 1e-14 * 3.0 * np.exp(0.45)


def test_rational_sum_over_shared_bases():
    rng = np.random.default_rng(9)
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    a = Rational.from_quotient(ExpSum.constant(2.0), tau)
    b = Rational.from_quotient(ExpSum.exponential(1.0, G2), tau, tau)
    x, y, t = _pts(rng, n=8, span=1.0)
    combo = a + b - 0.5
    direct = a.eval(x, y, t) + b.eval(x, y, t) - 0.5
    assert np.max(np.abs(combo.eval(x, y, t) - direct)) < 1e-13 * max(1.0, np.max(np.abs(direct)))


def test_rational_product_merges_identical_base():
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    a = Rational.from_quotient(ExpSum.constant(1.0), tau)
    prod = a * a
    assert prod.den == {tau: 2}
    # merges copy: the shared denominator of the operand is left alone
    assert Rational.from_quotient(a.num, tau, tau).den == {tau: 2}
    assert (a + prod).den == {tau: 2}
    assert a.den == {tau: 1}


def _derived_operands():
    """(f, evaluate) over an ExpSum and a two-base Rational."""
    tau = ExpSum.exponential(1.0, G1) + ExpSum.constant(1.0)
    sig = ExpSum.exponential(0.5, G3) + ExpSum.constant(2.0)
    rng = np.random.default_rng(13)
    x, y, t = _pts(rng, n=9, span=1.0)
    es = ExpSum.exponential(1.3, G1) + ExpSum.exponential(-0.7j, G2)
    rat = Rational.from_quotient(ExpSum.exponential(2.0, G2) + ExpSum.constant(0.5), tau, sig)
    return {"expsum": (es, lambda f: f.eval(x, y, t)),
            "rational": (rat, lambda f: f.eval(x, y, t))}


@pytest.mark.parametrize("kind", ["expsum", "rational"])
def test_derived_operators_match_pointwise_arithmetic(kind):
    f, ev = _derived_operands()[kind]
    g = f * f + 1.5
    fv, gv = ev(f), ev(g)
    cases = {"-f": (-f, -fv), "f - g": (f - g, fv - gv), "f - 2": (f - 2, fv - 2),
             "2 - f": (2 - f, 2 - fv), "2 + f": (2 + f, 2 + fv), "2 * f": (2 * f, 2 * fv),
             "f / 2": (f / 2, fv / 2)}
    for name, (algebra, direct) in cases.items():
        err = np.max(np.abs(ev(algebra) - direct))
        assert err <= 1e-13 * np.max(np.abs(direct)), (name, err)
