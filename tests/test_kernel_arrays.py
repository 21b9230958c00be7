"""Differential tests of the array-valued kernel layer against its scalar slow path.

``kernel_oracle`` keeps the point-by-point loops; every array evaluation here
must agree with them to REL relative (absolute below magnitude 1).  The
parameters are seeded with |nu|(b - a) <= 3, where cancellation in the
alternating series costs no more than a few ulps.  The series loops run at the
kernel's one truncation tolerance, ``kernel.DEFAULT_TOL``, and that every
element stops at its own term is checked bit for bit; the order sum's loop runs
to 1e-16, as the fast order sum is exact to rounding.
"""
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from causalprod import kernel
from causalprod.kernel import (
    ComplexParam,
    Interval,
    isometry_residual,
    kernel_anticausal,
    kernel_causal,
    limit_kernel,
    lommel_residual,
    sonine_gegenbauer_residual,
)
from kernel_oracle import (
    bessel_b_mpmath,
    bessel_profile_slow,
    bessel_series_slow,
    isometry_residual_slow,
    kernel_anticausal_slow,
    kernel_causal_slow,
    lommel_residual_slow,
    order_sum_mpmath,
    sonine_gegenbauer_residual_slow,
)

REL = 1e-13
TOLS = (kernel.DEFAULT_TOL,)  # the oracle loops' tolerance
IV = Interval(0.0, 1.0)
NU = ComplexParam(1.0, 0.5)


def _cases(count=10, seed=20150601, reach=3.0):
    """(interval, nu) pairs: nu = 0, lambda = 0, then seeded ones with |nu|(b-a) <= reach."""
    rng = random.Random(seed)
    out = [(Interval(-0.5, 0.5), ComplexParam(0.0, 0.0)),
           (Interval(0.25, 1.75), ComplexParam(0.0, 1.7))]
    while len(out) < count:
        a = rng.uniform(-1.0, 1.0)
        width = rng.uniform(0.5, 2.0)
        r, theta = rng.uniform(0.1, reach / width), rng.uniform(-math.pi, math.pi)
        out.append((Interval(a, a + width), ComplexParam(r * math.cos(theta), r * math.sin(theta))))
    return out


CASES = _cases()


def _close(fast, slow):
    fast, slow = np.asarray(fast), np.asarray(slow)
    return bool(np.all(np.abs(fast - slow) <= REL * np.maximum(1.0, np.abs(slow))))


def _pairs(iv, count, rng):
    """count points a <= x < y < b."""
    pts = np.sort(iv.a + iv.width * rng.random((count, 2)), axis=1)
    keep = pts[:, 0] < pts[:, 1]
    return pts[keep, 0], pts[keep, 1]


@pytest.mark.parametrize("tol", TOLS)
def test_bessel_arrays_match_scalar_loops(tol):
    rng = np.random.default_rng(1)
    x, y = 3.0 * rng.random(200), 3.0 * rng.random(200)
    for j in range(8):
        fast = kernel._bessel_b(j, x, y)
        assert _close(fast, [bessel_series_slow(j, u, v, tol) for u, v in zip(x, y)])
        fast = kernel.bessel_profile(j, x * y)
        assert _close(fast, [bessel_profile_slow(j, t, tol) for t in x * y])
        alone = [kernel.bessel_profile(j, float(t)) for t in x * y]
        assert all(type(g) is float for g in alone) and np.array_equal(fast, alone)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("iv, nu", CASES)
def test_kernel_arrays_match_scalar_loops(iv, nu, tol):
    x, y = _pairs(iv, 40, np.random.default_rng(2))
    assert _close(kernel_causal(x, y, iv, nu),
                  [kernel_causal_slow(u, v, iv, nu, tol) for u, v in zip(x, y)])
    assert _close(kernel_anticausal(y, x, iv, nu),
                  [kernel_anticausal_slow(v, u, iv, nu, tol) for u, v in zip(x, y)])


@pytest.mark.parametrize("iv, nu", CASES[:4])
def test_isometry_residual_matches_scalar_panels(iv, nu):
    # the last four leave one or two panels of width ~1e-9
    for fx, fy in ((0.25, 0.75), (0.1, 0.9), (1e-9, 0.5), (0.5, 1 - 1e-9), (0.4, 0.4 + 1e-9),
                   (1e-9, 1 - 1e-9)):
        x, y = iv.a + fx * iv.width, iv.a + fy * iv.width
        fast = isometry_residual(x, y, iv, nu)
        assert _close(fast, isometry_residual_slow(x, y, iv, nu, kernel.CHECK_NODES,
                                                   kernel.DEFAULT_TOL))


def test_quadrature_residuals_match_scalar_panels():
    nodes, tol = kernel.CHECK_NODES, kernel.DEFAULT_TOL
    for alpha, beta, x in ((1.0, 2.0, 0.5), (3.0, 1.0, 2.0), (0.5, 1.5, 1.0)):
        assert _close(lommel_residual(alpha, beta, x),
                      lommel_residual_slow(alpha, beta, x, nodes, tol))
    for beta, z in ((0.5, 0.4), (2.0, 1.6), (1.0, 1.0)):
        assert _close(sonine_gegenbauer_residual(beta, z),
                      sonine_gegenbauer_residual_slow(beta, z, nodes, tol))


def test_series_chunks_match_the_scalar_loop_exactly():
    # 5000 elements with |z| from 0 to 2000 share one block sized for the largest
    # |z|; each element must still get the scalar loop's sum bit for bit
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0, 1e-300], 2000.0 * rng.random(4998)])
    j = rng.integers(0, 4, t.size)
    fast = kernel._alt_series(1.0 / np.array([math.factorial(i) for i in j]), t, j)
    slow = [bessel_profile_slow(int(i), float(u), kernel.DEFAULT_TOL) for i, u in zip(j, t)]
    assert np.array_equal(fast, slow)
    assert np.array_equal(fast[::97], [kernel.bessel_profile(int(i), float(u))
                                       for i, u in zip(j[::97], t[::97])])


def test_single_points_go_through_bessel_series(monkeypatch):
    calls = []
    public = kernel.bessel_series

    def spy(j, x, y):
        calls.append(j)
        return public(j, x, y)

    monkeypatch.setattr(kernel, "bessel_series", spy)
    assert limit_kernel(0.2, 0.7, IV, NU) == kernel_causal(0.2, 0.7, IV, NU)
    assert limit_kernel(0.7, 0.2, IV, NU) == kernel_anticausal(0.7, 0.2, IV, NU)
    assert calls == [0, 1, 0, 1, 0, 0]
    limit_kernel(np.array([0.2, 0.7]), np.array([0.7, 0.2]), IV, NU)
    assert len(calls) == 6


def test_order_sum_past_order_170_runs_without_numpy_warnings():
    # (y-x)|nu| = 70, (b-a)|nu| = 84: the orders of the sum run past 170, where
    # q! and 70^q leave the float range, and the recurrence never forms either
    mpmath = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = kernel._order_sum(np.array([70.0]), 84.0, 1j)[0]
    with mpmath.workdps(30):
        ref = complex(order_sum_mpmath(70.0, 84.0, 1j))
    assert abs(fast - ref) <= 1e-13 * max(1.0, abs(ref))


def test_order_sum_is_one_block_sized_up_front(monkeypatch):
    # at (b-a)|nu| = 5.5 the wide pair has (y-x)|nu| = 5.39 and its recurrence
    # starts at order 36, the narrow pair's at 26: both run in one array pass from
    # order 36, the narrow one on zeros until its own start, so it gets the value
    # of its own single-point call bit for bit.  B_0 and B_1 are the only series
    # calls, one block of both pairs each; at xy ~ 30 they lose ~4e-13 to
    # cancellation, so the values are held to mpmath at 1e-12
    mpmath = pytest.importorskip("mpmath")
    series = []
    core = kernel._alt_series

    def spy_series(first, z, j):
        out = core(first, z, j)
        series.append(out.shape)
        return out

    monkeypatch.setattr(kernel, "_alt_series", spy_series)
    iv, nu = IV, ComplexParam(4.4, 3.3)
    x, y = np.array([0.01, 0.3]), np.array([0.99, 0.6])
    fast = kernel_causal(x, y, iv, nu)
    assert series == [(2,), (2,)]
    ref = np.array([_causal_mpmath(mpmath, u, v, iv, nu) for u, v in zip(x, y)])
    assert np.all(np.abs(fast - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    phase_bar, width = nu.value.conjugate() / nu.modulus, iv.width * nu.modulus
    both = kernel._order_sum((y - x) * nu.modulus, width, phase_bar)
    assert both[1] == kernel._order_sum((y - x)[1:] * nu.modulus, width, phase_bar)[0]


@pytest.mark.parametrize("x, y", [(0.3, 3000.0), (0.36, 3000.0), (25.0, 100.0), (50.0, 136.0)])
def test_order_sum_answers_where_the_sum_by_degree_failed(x, y):
    # the sum by degree refused (0.36, 3000), where the sum over orders before it
    # did not settle, and gave the other three with no correct digit: its terms
    # reached ~2^79, ~2^137 (`kernel --lambda 100 --n 3`) and ~2^230
    mpmath = pytest.importorskip("mpmath")
    fast = kernel._order_sum(np.array([0.1, x]), y, 1j)
    with mpmath.workdps(30):
        ref = np.array([complex(order_sum_mpmath(u, y, 1j)) for u in (0.1, x)])
    assert np.all(np.abs(fast - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_order_sum_scales_its_coefficients_beyond_float_range(monkeypatch):
    # at x = 1e-300, y = 1 each step multiplies J_k by 2k/z ~ 1e150, so the
    # recurrence's values (the coefficients of the sum as a power series in w)
    # are scaled by powers of two as they go: the sum is B_0 - i B_1 = 1 - 1e-300 i
    # to rounding, alone as in an array; unscaled, the same steps overflow
    tiny = np.array([1e-300])
    alone = kernel._order_sum(tiny, 1.0, 1j)[0]
    assert alone.real == kernel.bessel_series(0, 1e-300, 1.0) == 1.0
    assert alone.imag == pytest.approx(-1e-300, rel=1e-15)
    assert kernel._order_sum(np.array([1e-300, 1e-301]), 1.0, 1j)[0] == alone
    # at y = 1e10 the sum is B_0(x, y) = J_0(20) to within |B_1| ~ 7e-11
    fast = kernel._order_sum(np.array([1e-8]), 1e10, 1j)[0]
    assert abs(fast - kernel.bessel_series(0, 1e-8, 1e10)) < 1e-9
    monkeypatch.setattr(kernel, "_BIG", math.inf)
    with np.errstate(all="ignore"):
        assert not np.isfinite(kernel._order_sum(tiny, 1.0, 1j)).all()
        assert not np.isfinite(kernel._order_sum(np.array([1e-300, 1e-301]), 1.0, 1j)).all()


def test_order_sum_matches_mpmath_over_a_sweep():
    # 60 seeded points with (b-a)|nu| = y log-uniform in [0.01, 200], x = y U^2
    # and a uniform phase, through the array and the single-point path
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20151116)
    for _ in range(60):
        y = math.exp(rng.uniform(math.log(0.01), math.log(200.0)))
        x, theta = y * rng.random() ** 2, rng.uniform(-math.pi, math.pi)
        phase_bar = complex(math.cos(theta), math.sin(theta))
        with mpmath.workdps(30):
            ref = complex(order_sum_mpmath(x, y, phase_bar))
        pair = kernel._order_sum(np.array([x, 0.5 * x]), y, phase_bar)[0]
        alone = kernel._order_sum(np.array([x]), y, phase_bar)[0]
        for fast in (pair, alone):
            assert abs(fast - ref) <= 1e-13 * max(1.0, abs(ref)), (x, y, phase_bar)


@pytest.mark.parametrize("iv, nu", _cases(8, seed=7, reach=6.0))
def test_single_points_equal_their_array_entries_bit_for_bit(iv, nu):
    # a point's value must not depend on the other points of its call, nor on
    # whether it comes alone: every order sum adds its terms in order of q
    rng = np.random.default_rng(4)
    x, y = _pairs(iv, 20, rng)
    pts = iv.a + iv.width * rng.random(6)
    fast = kernel_causal(x, y, iv, nu)
    assert np.array_equal(fast, [kernel_causal(float(u), float(v), iv, nu) for u, v in zip(x, y)])
    grid = limit_kernel(pts[:, None], pts[None, :], iv, nu)
    assert np.array_equal(grid, [[limit_kernel(float(u), float(v), iv, nu) for v in pts]
                                 for u in pts])


def test_scalar_and_zero_dim_inputs_return_python_complex():
    scalar = kernel_causal(0.2, 0.7, IV, NU)
    assert type(scalar) is complex
    assert _close(scalar, kernel_causal_slow(0.2, 0.7, IV, NU, kernel.DEFAULT_TOL))
    for x, y in ((np.float64(0.2), np.array(0.7)), (np.array(0.2), np.array(0.7))):
        val = kernel_causal(x, y, IV, NU)
        assert type(val) is complex and val == scalar
    assert type(limit_kernel(np.array(0.4), 0.4, IV, NU)) is complex
    assert type(kernel_anticausal(0.7, 0.2, IV, ComplexParam(0.0, 0.0))) is complex


def test_length_one_and_grid_inputs_keep_their_shape():
    one = kernel_causal(np.array([0.2]), np.array([0.7]), IV, NU)
    assert one.shape == (1,) and one[0] == kernel_causal(0.2, 0.7, IV, NU)
    pts = np.linspace(0.05, 0.95, 7)
    grid = limit_kernel(pts[:, None], pts[None, :], IV, NU)
    assert grid.shape == (7, 7)
    assert np.all(np.diag(grid) == 0)
    assert _close(grid, [[limit_kernel(float(u), float(v), IV, NU) for v in pts] for u in pts])


def test_mixed_region_arrays_are_refused():
    x, y = np.array([0.2, 0.8]), np.array([0.7, 0.3])
    with pytest.raises(ValueError, match="causal region"):
        kernel_causal(x, y, IV, NU)
    with pytest.raises(ValueError, match="anticausal region"):
        kernel_anticausal(x, y, IV, NU)
    with pytest.raises(ValueError, match="square"):
        limit_kernel(np.array([0.5, 1.2]), 0.5, IV, NU)
    with pytest.raises(ValueError):
        kernel_causal(np.array([0.2, np.nan]), 0.7, IV, NU)


def test_series_that_cannot_settle_raise():
    with pytest.raises(ArithmeticError):
        kernel._alt_series(1.0, np.array([1.0, np.nan]), 0)
    with pytest.raises(ArithmeticError):
        lommel_residual(1.0, 2.0, math.nan)


def test_gauss_legendre_calls_fn_once_on_the_nodes():
    seen = []

    def fn(z):
        seen.append(np.shape(z))
        return z**3

    assert kernel.gauss_legendre(fn, 0.0, 1.0, 5) == pytest.approx(0.25, abs=1e-15)
    assert seen == [(5,)]
    nodes, weights = kernel._gl_nodes(5)
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_gauss_legendre_batches_panels_in_one_call():
    seen = []

    def fn(z):
        seen.append(np.shape(z))
        return np.exp(1j * z)

    lo, hi = np.array([[0.0], [1.0]]), np.array([0.5, 2.0, 3.0])
    batch = kernel.gauss_legendre(fn, lo, hi, 7)
    assert seen[0] == (2, 3, 7) and batch.shape == (2, 3)
    assert _close(batch, [[kernel.gauss_legendre(fn, a, b, 7) for b in hi] for a in lo[:, 0]])
    assert type(kernel.gauss_legendre(lambda z: z**2, 0.0, 1.0, 3)) is float


def test_gauss_legendre_nodes_match_leggauss():
    # the weights are compared for n <= 40 and at CHECK_NODES only: between 41 and
    # 100 nodes leggauss's own weights are off by up to 7.4e-15 (against 40-digit
    # Newton), and these by at most 1.5e-16
    for n in (*range(2, 41), kernel.CHECK_NODES):
        nodes, weights = kernel._gl_nodes(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(nodes - ref_nodes)) <= 4e-16
        assert np.max(np.abs(weights - ref_weights)) <= 4e-15


def _causal_mpmath(mpmath, x, y, iv, nu):
    """kernel_causal in 30 digits, from the mpmath references of kernel_oracle."""
    with mpmath.workdps(30):
        r = mpmath.sqrt(mpmath.mpf(nu.lam) ** 2 + mpmath.mpf(nu.mu) ** 2)
        if r == 0:
            return 0j
        v = mpmath.mpc(nu.lam, nu.mu)
        a, w = mpmath.mpf(iv.a), mpmath.mpf(iv.b) - mpmath.mpf(iv.a)
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        total = (v * bessel_b_mpmath(0, (y - a) * r, (a + w - x) * r)
                 + r * bessel_b_mpmath(1, w * r, (y - x) * r))
        if nu.lam != 0:
            total -= 2 * nu.lam * order_sum_mpmath((y - x) * r, w * r, mpmath.conj(v) / r)
        return complex(total)


@pytest.mark.parametrize("iv, nu", CASES)
def test_kernel_matches_mpmath_within_reach(iv, nu):
    # |nu|(b-a) <= 3; the largest relative error on these points is 4.0e-14,
    # against the 2e-13 bound
    mpmath = pytest.importorskip("mpmath")
    x, y = _pairs(iv, 40, np.random.default_rng(2))
    fast = kernel_causal(x, y, iv, nu)
    ref = np.array([_causal_mpmath(mpmath, u, v, iv, nu) for u, v in zip(x, y)])
    assert np.all(np.abs(fast - ref) <= 2e-13 * np.maximum(1.0, np.abs(ref)))


def test_grid_call_memory_stays_small():
    # one 61 x 61 limit_kernel call at |nu| = 8 held an (order x point x term)
    # block of ~111 MB under an earlier order sum; the order sum's recurrence
    # keeps five values per point, and the peak (~2.6 MB) is B_0's and B_1's
    # series blocks
    pts = np.linspace(0.0, 1.0, 63)[1:-1]
    nu = ComplexParam(6.0, 5.3)
    limit_kernel(pts[:2, None], pts[None, :2], IV, nu)
    tracemalloc.start()
    try:
        grid = limit_kernel(pts[:, None], pts[None, :], IV, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (61, 61)
    assert peak < 16e6


def test_batched_residuals_equal_their_scalar_calls():
    iv, nu = CASES[3]
    u, v = np.array(((0.15, 0.25, 0.4, 0.1, 0.55), (0.45, 0.75, 0.6, 0.9, 0.85)))
    x, y = iv.a + u * iv.width, iv.a + v * iv.width
    batch = isometry_residual(x, y, iv, nu)
    single = [isometry_residual(float(s), float(t), iv, nu) for s, t in zip(x, y)]
    assert batch.shape == (5,) and all(type(s) is complex for s in single)
    assert _close(batch, single)
    alpha, beta = np.array([1.0, 0.5, 3.0]), np.array([2.0, 1.5, 1.0])
    xs = np.array([0.5, 1.0, 2.0])
    batch = lommel_residual(alpha[:, None], beta[:, None], xs)
    single = [[lommel_residual(float(a), float(b), float(t)) for t in xs]
              for a, b in zip(alpha, beta)]
    assert batch.shape == (3, 3) and type(single[0][0]) is float
    assert _close(batch, single)
    betas, zs = np.array([0.5, 1.0, 2.0]), np.array([0.4, 1.0, 1.6])
    batch = sonine_gegenbauer_residual(betas[:, None], zs)
    single = [[sonine_gegenbauer_residual(float(b), float(z)) for z in zs] for b in betas]
    assert batch.shape == (3, 3) and type(single[0][0]) is float
    assert _close(batch, single)


@pytest.mark.parametrize("call", [
    lambda: isometry_residual(np.array([0.3, 0.7]), np.array([0.6, 0.5]), IV, NU),
    lambda: isometry_residual(np.array([0.0, 0.3]), 0.6, IV, NU),
    lambda: lommel_residual(np.array([1.0, -1.0]), 2.0, 1.0),
    lambda: lommel_residual(np.array([1.0, 2.0]), 2.0, 1.0),
    lambda: lommel_residual(1.0, 2.0, np.array([1.0, -0.5])),
    lambda: sonine_gegenbauer_residual(np.array([1.0, 0.0]), 1.0),
    lambda: sonine_gegenbauer_residual(1.0, np.array([0.5, -1.0])),
])
def test_batched_residuals_refuse_any_bad_entry(call):
    with pytest.raises(ValueError):
        call()
