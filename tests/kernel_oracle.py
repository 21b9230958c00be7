"""Scalar slow path of the kernel layer: the oracle for its array evaluation.

``causalprod.kernel`` evaluates B_j, G_j, the order sum and every quadrature
panel as numpy arrays.  This module keeps point-by-point loops, so that the
differential tests in ``test_kernel_arrays.py`` compare the fast path with a
slow one and not with itself.  The loops go one point at a time: one partial
sum per point, the order sum summed by total degree with one degree per step
(the fast path takes it along a backward Bessel recurrence), one scalar
kernel call per Gauss-Legendre node, and one quadrature per residual or per
inner panel of ``limit_bilinear_form`` (tested in ``test_product.py``).  The
residuals and the bilinear form call the causal and the anticausal kernel
each on its own region, where the fast path calls ``limit_kernel`` on every
panel.  The mpmath references of B_j and of the order sum sit here too.
"""
from __future__ import annotations

import math

import numpy as np

from causalprod.kernel import ComplexParam, Interval

_MAX_TERMS = 600
# the order sum is summed to rounding, so its oracle truncates past the series tolerance
ORDER_SUM_TOL = 1e-16


def bessel_series_slow(j: int, x: float, y: float, tol: float) -> float:
    """B_j(x, y) for j >= 0, one term at a time."""
    term = (-1.0) ** j * x**j / math.factorial(j)
    total = term
    for n in range(1, _MAX_TERMS):
        term *= -x * y / ((n + j) * n)
        total += term
        ratio = abs(x * y) / ((n + j + 1) * (n + 1))
        if ratio < 0.5 and abs(term) <= tol * max(1.0, abs(total)):
            return total
    raise ArithmeticError(f"series for B_{j}({x}, {y}) did not settle")


def bessel_profile_slow(j: int, x: float, tol: float) -> float:
    """G_j(x) for j >= 0, one term at a time."""
    term = 1.0 / math.factorial(j)
    total = term
    for k in range(1, _MAX_TERMS):
        term *= -x / (k * (k + j))
        total += term
        ratio = abs(x) / ((k + 1) * (k + j + 1))
        if ratio < 0.5 and abs(term) <= tol * max(1.0, abs(total)):
            return total
    raise ArithmeticError(f"series for G_{j}({x}) did not settle")


def order_sum_slow(x: float, y: float, phase_bar: complex, tol: float) -> complex:
    """sum_q B_q(x, y) phase_bar^q as sum_m (-x)^m / m! c_m, one degree at a time.

    c_m = phase_bar c_{m-1} + y^m / m! is formed unscaled, next to the bound
    s_m = sum_{n<=m} y^n / n! on |c_m|; the loop stops at the first m with
    x / (m+1) < 1/2 and s_m x^m / m! <= tol/2.
    """
    c, power, s, xm = 1.0 + 0j, 1.0, 1.0, 1.0  # power = y^m / m!, xm = (-x)^m / m!
    acc, m = c, 0
    while not (x / (m + 1) < 0.5 and s * abs(xm) <= 0.5 * tol):
        m += 1
        if m > _MAX_TERMS:
            raise ArithmeticError(f"order sum at x = {x}, y = {y} did not settle")
        power *= y / m
        s += power
        c = phase_bar * c + power
        xm *= -x / m
        acc += xm * c
    return acc


def bessel_b_mpmath(j: int, x, y):
    """B_j(x, y) = (-1)^j (x/y)^(j/2) J_j(2 sqrt(xy)) in mpmath, at its current precision."""
    import mpmath

    x, y = mpmath.mpf(x), mpmath.mpf(y)
    return (-1) ** j * (x / y) ** (j / 2) * mpmath.besselj(j, 2 * mpmath.sqrt(x * y))


def order_sum_mpmath(x, y, phase_bar):
    """sum_q B_q(x, y) phase_bar^q in mpmath, at its current precision, for 0 <= x <= y.

    The orders are summed as sum_q w^q J_q(z), w = -phase_bar sqrt(x/y) and
    z = 2 sqrt(xy), one mpmath.besselj per order, up to the first order past z
    whose term is below 10^(5 - dps).
    """
    import mpmath

    x, y = mpmath.mpf(x), mpmath.mpf(y)
    w = -mpmath.mpc(phase_bar) * mpmath.sqrt(x / y)
    z = 2 * mpmath.sqrt(x * y)
    eps = mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    acc, q = mpmath.mpc(0), 0
    while True:
        term = w**q * mpmath.besselj(q, z)
        acc += term
        if q > z and abs(term) < eps:
            return acc
        q += 1


def kernel_causal_slow(x: float, y: float, iv: Interval, nu: ComplexParam,
                       tol: float) -> complex:
    r = nu.modulus
    if r == 0.0:
        return 0j
    v = nu.value
    total = v * bessel_series_slow(0, (y - iv.a) * r, (iv.b - x) * r, tol)
    total += r * bessel_series_slow(1, iv.width * r, (y - x) * r, tol)
    two_lam = v + v.conjugate()
    if two_lam != 0:
        total -= two_lam * order_sum_slow((y - x) * r, iv.width * r, v.conjugate() / r,
                                          ORDER_SUM_TOL)
    return total


def kernel_anticausal_slow(x: float, y: float, iv: Interval, nu: ComplexParam,
                           tol: float) -> complex:
    r = nu.modulus
    if r == 0.0:
        return 0j
    return nu.value * bessel_series_slow(0, (y - iv.a) * r, (iv.b - x) * r, tol)


def gauss_legendre_slow(fn, lo: float, hi: float, n: int) -> complex:
    """One scalar call of fn per node."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * sum(w * fn(mid + half * t) for t, w in zip(nodes.tolist(), weights.tolist()))


def isometry_residual_slow(x: float, y: float, iv: Interval, nu: ComplexParam,
                           quad_n: int, tol: float) -> complex:
    def f(u, z):
        return kernel_causal_slow(u, z, iv, nu, tol)

    def g(u, z):
        return kernel_anticausal_slow(u, z, iv, nu, tol)

    total = f(x, y) + g(y, x).conjugate()
    total += gauss_legendre_slow(lambda z: g(x, z) * g(y, z).conjugate(), iv.a, x, quad_n)
    total += gauss_legendre_slow(lambda z: f(x, z) * g(y, z).conjugate(), x, y, quad_n)
    total += gauss_legendre_slow(lambda z: f(x, z) * f(y, z).conjugate(), y, iv.b, quad_n)
    return total


def limit_bilinear_form_slow(left, right, iv: Interval, nu: ComplexParam, quad_n: int,
                             tol: float) -> complex:
    """<left, K right> for piecewise polynomials, the inner integral at x split at the diagonal.

    The anticausal panel [right.lo, min(x, right.hi)) is taken where x > right.lo
    and the causal panel [max(x, right.lo), right.hi) where x < right.hi; the
    outer integral is split at right's support ends inside left's support.
    """
    def inner(x):
        total = 0j
        if x > right.lo:
            total += gauss_legendre_slow(
                lambda y: kernel_anticausal_slow(x, y, iv, nu, tol) * right(y),
                right.lo, min(x, right.hi), quad_n)
        if x < right.hi:
            total += gauss_legendre_slow(
                lambda y: kernel_causal_slow(x, y, iv, nu, tol) * right(y),
                max(x, right.lo), right.hi, quad_n)
        return total

    cuts = sorted({left.lo, left.hi, *(c for c in (right.lo, right.hi) if left.lo < c < left.hi)})
    return sum(gauss_legendre_slow(lambda x: left(x) * inner(x), lo, hi, quad_n)
               for lo, hi in zip(cuts, cuts[1:]))


def lommel_residual_slow(alpha: float, beta: float, x: float, quad_n: int,
                         tol: float) -> float:
    def g(j, t):
        return bessel_profile_slow(j, t, tol)

    lhs = gauss_legendre_slow(lambda z: g(0, alpha * z) * g(0, beta * z), 0.0, x, quad_n)
    rhs = (alpha * x * g(1, alpha * x) * g(0, beta * x)
           - beta * x * g(1, beta * x) * g(0, alpha * x)) / (alpha - beta)
    return abs(lhs - rhs)


def sonine_gegenbauer_residual_slow(beta: float, z: float, quad_n: int, tol: float) -> float:
    def g(j, t):
        return bessel_profile_slow(j, t, tol)

    lhs = gauss_legendre_slow(lambda w: g(1, w) * g(1, w + beta), 0.0, z, quad_n)
    rhs = (z * g(1, z) * g(0, z + beta)
           - (z + beta) * g(1, z + beta) * g(0, z)) / beta + g(1, beta)
    return abs(lhs - rhs)
