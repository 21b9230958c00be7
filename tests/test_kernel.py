import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalprod import kernel
from causalprod.coefficients import truncated_kernel
from causalprod.kernel import (
    ComplexParam,
    Interval,
    bessel_profile,
    bessel_series,
    gauss_legendre,
    isometry_residual,
    kernel_anticausal,
    kernel_causal,
    limit_kernel,
    lommel_residual,
    sonine_gegenbauer_residual,
)

IV = Interval(0.0, 1.0)
NU = ComplexParam(1.0, 0.5)


def _series_oracle_b0_11(terms=50):
    """B_0(1, 1) = J_0(2) as an exact partial sum, evaluated in rationals."""
    total = Fraction(0)
    for n in range(terms):
        total += Fraction((-1) ** n, math.factorial(n) ** 2)
    return float(total)


def test_param_and_interval_types():
    assert NU.value == 1 + 0.5j
    assert NU.modulus == pytest.approx(math.sqrt(1.25))
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    assert Interval(-1.0, 3.0).width == 4.0


def test_bessel_series_at_zero_first_argument():
    assert bessel_series(0, 0.0, 3.7) == 1.0
    assert bessel_series(2, 0.0, 1.9) == 0.0
    assert bessel_series(5, 0.0, 0.4) == 0.0


def test_bessel_series_matches_rational_oracle():
    oracle = _series_oracle_b0_11()
    assert abs(bessel_series(0, 1.0, 1.0) - oracle) < 1e-14
    assert bessel_series(0, 1.0, 1.0) == pytest.approx(0.2238907791, abs=1e-9)


def test_bessel_series_negative_order_convention():
    # orders start at 0; a caller writes B_{-1}(x, y) as -B_1(y, x)
    with pytest.raises(ValueError, match="order must be >= 0"):
        bessel_series(-2, 1.0, 1.0)
    with pytest.raises(ValueError, match="order must be >= 0"):
        bessel_profile(-1, 0.7)


def test_no_public_kernel_callable_takes_tol():
    # the kernel layer computes at the one truncation tolerance kernel.DEFAULT_TOL;
    # config is left out, as RunConfig's tol is verify's pass threshold
    from causalprod import coefficients, combinatorics, lattice, product

    for module in (combinatorics, coefficients, kernel, lattice, product):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", "").startswith("causalprod"):
                assert "tol" not in inspect.signature(obj).parameters, f"{module.__name__}.{name}"
    with pytest.raises(ValueError, match="order must be >= 0"):
        bessel_series(-1, 0.7, 1.3)


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_bessel_series_order0_symmetric(x, y):
    # term recursion only sees the product x*y, so symmetry is exact
    assert bessel_series(0, x, y) == bessel_series(0, y, x)


def test_bessel_profile_relates_to_series():
    # B_j(x, y) == (-1)^j x^j G_j(x y)
    for j in range(0, 4):
        for x, y in [(0.5, 1.1), (1.7, 0.4)]:
            lhs = bessel_series(j, x, y)
            rhs = (-1.0) ** j * x**j * bessel_profile(j, x * y)
            assert lhs == pytest.approx(rhs, abs=1e-14)


def test_kernel_region_validation():
    with pytest.raises(ValueError):
        kernel_causal(0.7, 0.3, IV, NU)
    with pytest.raises(ValueError):
        kernel_causal(0.3, 0.3, IV, NU)
    with pytest.raises(ValueError):
        kernel_anticausal(0.3, 0.7, IV, NU)
    with pytest.raises(ValueError):
        limit_kernel(1.2, 0.5, IV, NU)
    assert limit_kernel(0.4, 0.4, IV, NU) == 0j


def test_kernel_zero_parameter():
    zero = ComplexParam(0.0, 0.0)
    assert kernel_causal(0.2, 0.8, IV, zero) == 0j
    assert kernel_anticausal(0.8, 0.2, IV, zero) == 0j
    assert isometry_residual(0.3, 0.6, IV, zero) == 0j


def test_kernel_refuses_non_finite_value(monkeypatch):
    # (b - a)|nu| is about 14, but nu + conj(nu) = 2e308 overflows
    iv, huge = Interval(0.0, 1e-307), ComplexParam(1e308, 1e308)
    with pytest.raises(ArithmeticError):
        kernel_causal(1e-307 / 3, 2e-307 / 3, iv, huge)
    with pytest.raises(ArithmeticError):
        limit_kernel(1e-307 / 3, 2e-307 / 3, iv, huge)
    with pytest.raises(ArithmeticError):
        limit_kernel([1e-307 / 3, 2e-307 / 3], [2e-307 / 3, 1e-307 / 3], iv, huge)
    monkeypatch.setattr(kernel, "_bessel_b", lambda *args: math.inf)
    with pytest.raises(ArithmeticError):
        kernel_anticausal(0.8, 0.2, IV, NU)


def test_kernel_leading_order_small_interval():
    tiny = Interval(0.0, 1e-4)
    f = kernel_causal(2e-5, 8e-5, tiny, NU)
    g = kernel_anticausal(8e-5, 2e-5, tiny, NU)
    assert abs(f - (-NU.value.conjugate())) < 1e-3
    assert abs(g - NU.value) < 1e-3


def test_kernel_real_parameter_specialization():
    """For real positive nu the kernel reduces to the single-parameter display."""
    lam = 0.8
    nu = ComplexParam(lam, 0.0)

    def display(x, y):
        val = lam * bessel_series(0, y * lam, (1 - x) * lam)
        val += lam * bessel_series(1, lam, (y - x) * lam)
        total, q, quiet = 0.0, 0, 0
        while quiet < 3:
            bq = bessel_series(q, (y - x) * lam, lam)
            total += bq
            quiet = quiet + 1 if abs(bq) < 1e-12 else 0
            q += 1
        return val - 2 * lam * total

    for x, y in [(0.1, 0.5), (0.3, 0.7), (0.25, 0.9)]:
        assert limit_kernel(x, y, IV, nu) == pytest.approx(display(x, y), abs=1e-12)
        assert limit_kernel(y, x, IV, nu) == pytest.approx(
            lam * bessel_series(0, x * lam, (1 - y) * lam), abs=1e-12)


def test_truncated_series_matches_closed_kernel():
    worst = 0.0
    for i in range(1, 8):
        for j in range(1, 8):
            x, y = i / 8, j / 8
            ser = truncated_kernel(x, y, IV.a, IV.b, NU.value, 25)
            clo = limit_kernel(x, y, IV, NU)
            worst = max(worst, abs(ser - clo))
    assert worst < 1e-10


def test_gauss_legendre_polynomial_exactness():
    assert gauss_legendre(lambda z: z**3, 0.0, 1.0, 2) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        gauss_legendre(lambda z: z, 0.0, 1.0, 1)


def test_isometry_residual_small():
    for x, y in [(0.25, 0.75), (0.4, 0.6), (0.1, 0.9)]:
        assert abs(isometry_residual(x, y, IV, ComplexParam(1.0, 0.0))) < 1e-8
        assert abs(isometry_residual(x, y, IV, ComplexParam(0.5, 0.5))) < 1e-8


def test_isometry_residual_region_and_nodes(monkeypatch):
    with pytest.raises(ValueError):
        isometry_residual(0.7, 0.3, IV, NU)
    calls = []

    def counted(fn, lo, hi, n):
        calls.append((np.shape(lo), np.shape(hi), n))
        return gauss_legendre(fn, lo, hi, n)

    monkeypatch.setattr(kernel, "gauss_legendre", counted)
    isometry_residual(0.3, 0.7, IV, NU)
    # one quadrature over the panels [a, x), [x, y) and [y, b)
    assert calls == [((3,), (3,), kernel.CHECK_NODES)]


def test_isometry_residual_quadrature_refinement(monkeypatch):
    # the fixed 64-node rule sits on the converged side of the refinement ladder
    prev = None
    for quad_n in (8, 16, 32, 64, 128):
        monkeypatch.setattr(kernel, "CHECK_NODES", quad_n)
        cur = abs(isometry_residual(0.3, 0.7, IV, NU))
        if prev is not None:
            assert cur <= prev or cur < 1e-12
        prev = cur


def test_lommel_residual():
    assert lommel_residual(1.0, 2.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert lommel_residual(1.0, 2.0, 1.0) < 1e-9
    assert lommel_residual(3.0, 1.0, 0.5) < 1e-9
    with pytest.raises(ValueError):
        lommel_residual(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        lommel_residual(-1.0, 1.0, 1.0)


def test_sonine_gegenbauer_residual():
    assert sonine_gegenbauer_residual(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert sonine_gegenbauer_residual(1.0, 1.0) < 1e-9
    assert sonine_gegenbauer_residual(2.0, 0.5) < 1e-9
    with pytest.raises(ValueError):
        sonine_gegenbauer_residual(0.0, 1.0)


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 6.5, 8.0])
def test_bessel_series_matches_mpmath_below_cancellation(x):
    mpmath = pytest.importorskip("mpmath")
    # B_0(x, x) = J_0(2x)
    assert abs(bessel_series(0, x, x) - float(mpmath.besselj(0, 2 * x))) <= 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: cancellation in the alternating "
                   "series; B_0(20, 20) comes out as -0.090 where J_0(40) = 0.0074")
def test_bessel_series_matches_mpmath_at_large_argument():
    mpmath = pytest.importorskip("mpmath")
    assert abs(bessel_series(0, 20.0, 20.0) - float(mpmath.besselj(0, 40))) <= 1e-9
