"""Differential tests of the array-valued kernel layer against its scalar slow path.

``kernel_oracle`` keeps the point-by-point loops; every array evaluation here
must agree with them to REL relative (absolute below magnitude 1).  The
parameters are seeded with |nu|(b - a) <= 3, where cancellation in the
alternating series costs no more than a few ulps; the coarse tolerance makes
the stopping rules (per-element freezing, three quiet orders per point)
decide digits that the comparison sees.
"""
import math
import random
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
    bessel_profile_slow,
    bessel_series_slow,
    isometry_residual_slow,
    kernel_anticausal_slow,
    kernel_causal_slow,
    lommel_residual_slow,
    sonine_gegenbauer_residual_slow,
)

REL = 1e-13
TOLS = (1e-12, 1e-4)
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
        fast = kernel._bessel_b(j, x, y, tol)
        assert _close(fast, [bessel_series_slow(j, u, v, tol) for u, v in zip(x, y)])
        fast = kernel._profile(j, x * y, tol)
        assert _close(fast, [bessel_profile_slow(j, t, tol) for t in x * y])


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("iv, nu", CASES)
def test_kernel_arrays_match_scalar_loops(iv, nu, tol):
    x, y = _pairs(iv, 40, np.random.default_rng(2))
    assert _close(kernel_causal(x, y, iv, nu, tol),
                  [kernel_causal_slow(u, v, iv, nu, tol) for u, v in zip(x, y)])
    assert _close(kernel_anticausal(y, x, iv, nu, tol),
                  [kernel_anticausal_slow(v, u, iv, nu, tol) for u, v in zip(x, y)])


@pytest.mark.parametrize("iv, nu", CASES[:4])
def test_isometry_residual_matches_scalar_panels(iv, nu):
    for fx, fy in ((0.25, 0.75), (0.1, 0.9)):
        x, y = iv.a + fx * iv.width, iv.a + fy * iv.width
        fast = isometry_residual(x, y, iv, nu, quad_n=16, tol=1e-12)
        assert _close(fast, isometry_residual_slow(x, y, iv, nu, 16, 1e-12))


def test_quadrature_residuals_match_scalar_panels():
    for tol in TOLS:
        for alpha, beta, x in ((1.0, 2.0, 0.5), (3.0, 1.0, 2.0), (0.5, 1.5, 1.0)):
            assert _close(lommel_residual(alpha, beta, x, 32, tol),
                          lommel_residual_slow(alpha, beta, x, 32, tol))
        for beta, z in ((0.5, 0.4), (2.0, 1.6), (1.0, 1.0)):
            assert _close(sonine_gegenbauer_residual(beta, z, 32, tol),
                          sonine_gegenbauer_residual_slow(beta, z, 32, tol))


def test_series_chunks_match_the_scalar_loop_exactly():
    # 5000 elements with |z| from 0 to 2000 share one block sized for the largest
    # |z|; each element must still get the scalar loop's sum bit for bit
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0, 1e-300], 2000.0 * rng.random(4998)])
    j = rng.integers(0, 4, t.size)
    for tol in TOLS:
        fast = kernel._alt_series(1.0 / np.array([math.factorial(i) for i in j]), t, j, tol)
        slow = [bessel_profile_slow(int(i), float(u), tol) for i, u in zip(j, t)]
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast[::97], [kernel.bessel_profile(int(i), float(u), tol)
                                           for i, u in zip(j[::97], t[::97])])


def test_single_points_go_through_bessel_series(monkeypatch):
    calls = []
    public = kernel.bessel_series

    def spy(j, x, y, tol=kernel.DEFAULT_TOL):
        calls.append(j)
        return public(j, x, y, tol)

    monkeypatch.setattr(kernel, "bessel_series", spy)
    assert limit_kernel(0.2, 0.7, IV, NU) == kernel_causal(0.2, 0.7, IV, NU)
    assert limit_kernel(0.7, 0.2, IV, NU) == kernel_anticausal(0.7, 0.2, IV, NU)
    assert calls == [0, 1, 0, 1, 0, 0]
    limit_kernel(np.array([0.2, 0.7]), np.array([0.7, 0.2]), IV, NU)
    assert len(calls) == 6


def test_overflowing_orders_raise_without_numpy_warnings():
    # (y-x)|nu| = 70: 70^q / q! drops below 1e-12 only past q = 170, and (-x)^q
    # overflows from q = 168, so the order sum refuses before it forms any order
    iv, nu = Interval(0.0, 1.0), ComplexParam(70.0 * 1.2, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="needs orders past 170"):
            kernel_causal(0.0, 1.0 / 1.2, iv, nu)


def test_order_sum_is_one_block_sized_up_front(monkeypatch):
    # at (b-a)|nu| = 5.5 the wide pair has (y-x)|nu| = 5.39, and 5.39^q / q! < 1e-12
    # from Q = 32: one block of orders 0..34 for both pairs; the narrow pair's sum
    # still stops at its own order
    shapes = []
    core = kernel._alt_series

    def spy(first, z, j, tol):
        out = core(first, z, j, tol)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(kernel, "_alt_series", spy)
    iv, nu = IV, ComplexParam(4.4, 3.3)
    x, y = np.array([0.01, 0.3]), np.array([0.99, 0.6])
    fast = kernel_causal(x, y, iv, nu)
    assert shapes == [(2,), (2,), (35, 2)]
    assert _close(fast, [kernel_causal_slow(u, v, iv, nu, 1e-12) for u, v in zip(x, y)])


@pytest.mark.parametrize("iv, nu", _cases(8, seed=7, reach=6.0)[2:])
def test_single_points_equal_their_array_entries_bit_for_bit(iv, nu):
    # a point's value must not depend on the other points of its call, nor on
    # whether it comes alone: every order sum adds its terms in order of q
    rng = np.random.default_rng(4)
    x, y = _pairs(iv, 20, rng)
    pts = iv.a + iv.width * rng.random(6)
    for tol in TOLS:
        fast = kernel_causal(x, y, iv, nu, tol)
        assert np.array_equal(fast, [kernel_causal(float(u), float(v), iv, nu, tol)
                                     for u, v in zip(x, y)])
        grid = limit_kernel(pts[:, None], pts[None, :], iv, nu, tol)
        assert np.array_equal(grid, [[limit_kernel(float(u), float(v), iv, nu, tol)
                                      for v in pts] for u in pts])


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
        kernel._alt_series(1.0, np.array([1.0, np.nan]), 0, 1e-12)
    with pytest.raises(ArithmeticError):
        lommel_residual(1.0, 2.0, math.nan)
    with pytest.raises(ValueError):
        kernel._alt_series(1.0, np.array([1.0]), 0, 0.0)


def test_gauss_legendre_calls_fn_once_on_the_nodes():
    seen = []

    def fn(z):
        seen.append(np.shape(z))
        return z**3

    assert kernel.gauss_legendre(fn, 0.0, 1.0, 5) == pytest.approx(0.25, abs=1e-15)
    assert seen == [(5,)]
    nodes, weights = kernel._gl_nodes(5)
    assert not nodes.flags.writeable and not weights.flags.writeable
