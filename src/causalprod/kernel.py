"""Bessel-type series and the closed-form kernel of the limit operator.

The building block is the entire two-variable series

    B_j(x, y) = sum_{n>=0} (-1)^{n+j} x^{n+j} y^n / ((n+j)! n!)
              = (-1)^j (x/y)^{j/2} J_j(2 sqrt(xy)),

together with its one-variable profile G_j(x) = J_j(2 sqrt(x)) / x^{j/2}.
Both are partial sums of one alternating series, which ``_alt_series``
evaluates elementwise over numpy arrays; the kernels and the quadrature checks
pass whole Gauss-Legendre panels through it.  Each call sizes its block up
front from a-priori bounds: the term count from |term_n| <= max|first|
max|z|^n / n!^2, and the kernel's order count from |B_q(x, y)| <= x^q / q!.
The stopping rule bounds the truncation error only: once the term ratio drops
below 1/2 the remaining tail is dominated by the last term, so stopping at
|term| <= tol * max(1, |sum|) keeps the truncation error below the requested
tolerance.  Rounding error from cancellation between the alternating terms is
not bounded.  It grows with xy: B_0(x, x) is off by ~1e-10 at xy = 100, by
~1e-5 at xy = 225 and in every digit at xy = 400 (ROADMAP item 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-12
_MAX_TERMS = 600
_MAX_ORDER = 170  # largest q whose q! is a finite float64
_FACTORIALS = np.array([math.factorial(q) for q in range(_MAX_ORDER + 1)], dtype=float)


@dataclass(frozen=True)
class ComplexParam:
    """Generator parameter nu = lam + i*mu with modulus and phase."""

    lam: float
    mu: float

    @property
    def value(self) -> complex:
        return complex(self.lam, self.mu)

    @property
    def modulus(self) -> float:
        return math.hypot(self.lam, self.mu)


@dataclass(frozen=True)
class Interval:
    """Half-open carrier interval [a, b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b})")

    @property
    def width(self) -> float:
        return self.b - self.a


def _filled(values, shape: tuple, dtype: type) -> np.ndarray:
    """A new array of the given shape and dtype holding values, broadcast."""
    out = np.empty(shape, dtype=dtype)
    out[...] = values
    return out


def _alt_series(first, z, j, tol: float) -> np.ndarray:
    """Elementwise sum over n >= 0 of first * prod_{k=1..n} (-z / (k (k + j))).

    B_j(x, y) is first = (-x)^j / j! with z = x y; G_j(t) is first = 1 / j!
    with z = t.  The arguments broadcast; j holds integer orders >= 0.  Each
    element stops at its first term n >= 1 with ratio |z| / ((n+1)(n+j+1)) <
    1/2 and |term| <= tol * max(1, |sum|), so it gets the partial sum it would
    get alone.  As |term_n| <= max|first| max|z|^n / n!^2, all have stopped by
    the first K >= 1 with max|z| < (K+1)^2 / 2 and that bound <= tol/2 (one
    term of margin for rounding); the K + 1 terms are formed in one block as a
    running product and a running sum.  K past _MAX_TERMS (so any non-finite
    argument) or an overflowing sum raises ArithmeticError.
    """
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")
    shape = np.broadcast(first, z, j).shape
    first, z, j = (_filled(a, shape, t).ravel() for a, t in ((first, float), (z, float), (j, int)))
    z_max = float(np.abs(z).max(initial=0.0))
    n, bound = 1, float(np.abs(first).max(initial=0.0)) * z_max  # bound on |term_n|
    while not (z_max / (n + 1) ** 2 < 0.5 and bound <= 0.5 * tol):
        n += 1
        if n > _MAX_TERMS:
            raise ArithmeticError(f"series with |z| up to {z_max:.6g} need over {_MAX_TERMS} terms")
        bound *= z_max / n**2
    k = np.arange(1, n + 2)[:, None]
    kk = k * (k + j)  # row i: (i+1)(i+1+j), the divisor of term i+1
    terms = np.empty((n + 1, first.size))
    terms[0] = first
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(-z, kk[:-1], out=terms[1:])
        np.multiply.accumulate(terms, out=terms)
        mag = np.abs(terms[1:])
        sums = np.add.accumulate(terms, out=terms)  # the terms become the partial sums
        done = (mag <= tol * np.maximum(1.0, np.abs(sums[1:]))) & (np.abs(z) / kk[1:] < 0.5)
    cols = np.arange(first.size)
    stop = done.argmax(axis=0)
    out = sums[stop + 1, cols]
    if not (done[stop, cols].all() and np.isfinite(out).all()):
        raise ArithmeticError(f"series overflowed or did not settle (largest |z| = {z_max:.6g})")
    return out.reshape(shape)


def _bessel_b(j: int, x, y, tol: float) -> np.ndarray | float:
    """B_j(x, y) elementwise, for one order j >= 0.

    A single point is a call of the public bessel_series, so that per-point
    kernel evaluations are seen, and traced, under that name.
    """
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return bessel_series(j, float(x), float(y), tol)
    x = np.asarray(x, dtype=float)
    return _alt_series((-x) ** j / math.factorial(j), x * y, j, tol)


def _profile(j: int, t, tol: float) -> np.ndarray:
    """G_j(t) elementwise, for one order j >= 0."""
    return _alt_series(1.0 / math.factorial(j), t, j, tol)


def bessel_series(j: int, x: float, y: float, tol: float = DEFAULT_TOL) -> float:
    """Partial sum of B_j(x, y) with truncation error below tol (scalar arguments).

    j = -1 is understood as B_{-1}(x, y) = -B_1(y, x), which is the value of
    d/dx B_0 with the opposite sign.
    """
    if j == -1:
        return -bessel_series(1, y, x, tol)
    if j < 0:
        raise ValueError(f"order must be >= -1, got {j}")
    return float(_alt_series((-x) ** j / math.factorial(j), x * y, j, tol))


def bessel_profile(j: int, x: float, tol: float = DEFAULT_TOL) -> float:
    """Partial sum of G_j(x) = sum_{k>=0} (-1)^k x^k / (k! (k+j)!) (scalar argument)."""
    if j < 0:
        raise ValueError(f"order must be >= 0, got {j}")
    return float(_profile(j, x, tol))


def _order_sum(x: np.ndarray, y: float, phase_bar: complex, tol: float) -> np.ndarray:
    """sum_q B_q(x, y) phase_bar^q for each entry of the 1-d array x, 0 <= x <= y.

    Each point's sum stops after its first three consecutive |B_q| < tol.  As
    |B_q(x, y)| <= x^q / q!, every order from the first Q >= max x with
    (max x)^Q / Q! < tol is below tol, so orders 0..Q+2 are evaluated at every
    point in one (q x point) block.  Q + 2 past _MAX_ORDER, or a point without
    three quiet orders in the block, raises ArithmeticError.  The terms are
    added in order of q, as a point-by-point loop would.
    """
    x_max = float(x.max(initial=0.0))
    top, bound = 0, 1.0  # bound = x_max^top / top!
    while not (top >= x_max and bound < tol):
        top += 1
        if top + 2 > _MAX_ORDER:
            raise ArithmeticError(f"order sum at x = {x_max:.6g} needs orders past {_MAX_ORDER}")
        bound *= x_max / top
    q = np.arange(top + 3)[:, None]
    with np.errstate(over="ignore"):
        first = (-x) ** q / _FACTORIALS[:top + 3, None]
    b = _alt_series(first, x * y, q, tol)
    quiet = np.abs(b) < tol
    run = quiet[:-2] & quiet[1:-1] & quiet[2:]
    settled = run.any(axis=0)
    if not settled.all():
        raise ArithmeticError(f"order sum at x = {x[settled.argmin()]:.6g} did not settle")
    stop = run.argmax(axis=0) + 2
    weight = np.full((top + 3, 1), phase_bar)
    weight[0] = 1.0
    np.multiply.accumulate(weight, out=weight)
    return np.add.accumulate(np.where(q <= stop, b * weight, 0.0))[-1]


def _points(x, y, inside: Callable, region: str) -> tuple[np.ndarray, np.ndarray]:
    """x and y as broadcast float arrays; ValueError unless inside(x, y) holds everywhere."""
    shape = np.broadcast(x, y).shape
    x, y = _filled(x, shape, float), _filled(y, shape, float)
    bad = ~inside(x, y)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"({x.flat[i]}, {y.flat[i]}) not in {region}")
    return x, y


def _result(values: np.ndarray) -> complex | np.ndarray:
    """A Python complex for a scalar evaluation, else the complex array."""
    return complex(values) if np.ndim(values) == 0 else values


def kernel_causal(x: float | np.ndarray, y: float | np.ndarray, iv: Interval,
                  nu: ComplexParam, tol: float = DEFAULT_TOL) -> complex | np.ndarray:
    """Kernel value on the causal region a <= x < y < b; x and y broadcast.

    nu*B_0((y-a)|nu|, (b-x)|nu|) + |nu|*B_1((b-a)|nu|, (y-x)|nu|)
    - (nu + conj(nu)) * sum_q B_q((y-x)|nu|, (b-a)|nu|) (conj(nu)/|nu|)^q.

    The q-sum's weights are unimodular, so its truncation relies on the decay
    of B_q in the order; it stops after three consecutive |B_q| < tol.
    """
    x, y = _points(x, y, lambda u, v: (iv.a <= u) & (u < v) & (v < iv.b),
                   f"the causal region of {iv}")
    r = nu.modulus
    if r == 0.0:
        return _result(np.zeros(x.shape, dtype=complex))
    v = nu.value
    total = v * _bessel_b(0, (y - iv.a) * r, (iv.b - x) * r, tol)
    total += r * _bessel_b(1, iv.width * r, (y - x) * r, tol)
    two_lam = v + v.conjugate()
    if two_lam != 0:
        acc = _order_sum(((y - x) * r).ravel(), iv.width * r, v.conjugate() / r, tol)
        total -= two_lam * acc.reshape(x.shape)
    return _result(total)


def kernel_anticausal(x: float | np.ndarray, y: float | np.ndarray, iv: Interval,
                      nu: ComplexParam, tol: float = DEFAULT_TOL) -> complex | np.ndarray:
    """Kernel value on the anticausal region a <= y < x < b: nu*B_0((y-a)|nu|, (b-x)|nu|)."""
    x, y = _points(x, y, lambda u, v: (iv.a <= v) & (v < u) & (u < iv.b),
                   f"the anticausal region of {iv}")
    r = nu.modulus
    if r == 0.0:
        return _result(np.zeros(x.shape, dtype=complex))
    return _result(nu.value * _bessel_b(0, (y - iv.a) * r, (iv.b - x) * r, tol))


def limit_kernel(x: float | np.ndarray, y: float | np.ndarray, iv: Interval,
                 nu: ComplexParam, tol: float = DEFAULT_TOL) -> complex | np.ndarray:
    """Kernel of (limit operator - identity) on [a, b)^2; zero on the diagonal."""
    x, y = _points(x, y, lambda u, v: (iv.a <= u) & (u < iv.b) & (iv.a <= v) & (v < iv.b),
                   f"the square of {iv}")
    if x.ndim == 0:
        if x == y:
            return 0j
        return (kernel_causal if x < y else kernel_anticausal)(x, y, iv, nu, tol)
    out = np.zeros(x.shape, dtype=complex)
    for branch, mask in ((kernel_causal, x < y), (kernel_anticausal, y < x)):
        if mask.any():
            out[mask] = branch(x[mask], y[mask], iv, nu, tol)
    return _result(out)


@lru_cache(maxsize=None)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                   n: int) -> complex:
    """n-node Gauss-Legendre quadrature of fn over (lo, hi).

    fn is called once, on the array of the n nodes, and returns the n values.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    nodes, weights = _gl_nodes(n)
    half = 0.5 * (hi - lo)
    return (half * (weights @ fn(0.5 * (lo + hi) + half * nodes))).item()


def isometry_residual(x: float, y: float, iv: Interval, nu: ComplexParam,
                      quad_n: int = 64, tol: float = DEFAULT_TOL) -> complex:
    """Defect of the isometry identity at a < x < y < b; zero when the operator is unitary.

    f(x,y) + conj(g(y,x)) + int_a^x g(x,z)conj(g(y,z)) dz
    + int_x^y f(x,z)conj(g(y,z)) dz + int_y^b f(x,z)conj(f(y,z)) dz,

    with f the causal and g the anticausal kernel part.  Each panel gets
    quad_n Gauss-Legendre nodes; the panel split at x and y matters because
    the kernel switches branch there.
    """
    if not (iv.a < x < y < iv.b):
        raise ValueError(f"need a < x < y < b, got x={x}, y={y} in {iv}")
    if quad_n < 2:
        raise ValueError(f"need quad_n >= 2, got {quad_n}")

    def f(u, z):
        return kernel_causal(u, z, iv, nu, tol)

    def g(u, z):
        return kernel_anticausal(u, z, iv, nu, tol)

    total = f(x, y) + g(y, x).conjugate()
    total += gauss_legendre(lambda z: g(x, z) * g(y, z).conjugate(), iv.a, x, quad_n)
    total += gauss_legendre(lambda z: f(x, z) * g(y, z).conjugate(), x, y, quad_n)
    total += gauss_legendre(lambda z: f(x, z) * f(y, z).conjugate(), y, iv.b, quad_n)
    return total


def lommel_residual(alpha: float, beta: float, x: float, quad_n: int = 64,
                    tol: float = DEFAULT_TOL) -> float:
    """|int_0^x G_0(alpha z) G_0(beta z) dz - closed form| (Lommel integral).

    Closed form: (alpha x G_1(alpha x) G_0(beta x) - beta x G_1(beta x)
    G_0(alpha x)) / (alpha - beta); requires alpha != beta.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("need alpha, beta > 0")
    if alpha == beta:
        raise ValueError("closed form needs alpha != beta")
    if x < 0:
        raise ValueError("need x >= 0")
    scales = np.array([[alpha], [beta]])
    lhs = gauss_legendre(lambda z: np.prod(_profile(0, scales * z, tol), axis=0), 0.0, x, quad_n)
    g0a, g0b = _profile(0, (alpha * x, beta * x), tol)
    g1a, g1b = _profile(1, (alpha * x, beta * x), tol)
    rhs = (alpha * x * g1a * g0b - beta * x * g1b * g0a) / (alpha - beta)
    return float(abs(lhs - rhs))


def sonine_gegenbauer_residual(beta: float, z: float, quad_n: int = 64,
                               tol: float = DEFAULT_TOL) -> float:
    """|int_0^z G_1(w) G_1(w + beta) dw - closed form| (Sonine-Gegenbauer type).

    Closed form: (z G_1(z) G_0(z+beta) - (z+beta) G_1(z+beta) G_0(z)) / beta
    + G_1(beta).
    """
    if beta <= 0:
        raise ValueError("need beta > 0")
    if z < 0:
        raise ValueError("need z >= 0")
    shifts = np.array([[0.0], [beta]])
    lhs = gauss_legendre(lambda w: np.prod(_profile(1, w + shifts, tol), axis=0), 0.0, z, quad_n)
    g1z, g1zb, g1b = _profile(1, (z, z + beta, beta), tol)
    g0z, g0zb = _profile(0, (z, z + beta), tol)
    rhs = (z * g1z * g0zb - (z + beta) * g1zb * g0z) / beta + g1b
    return float(abs(lhs - rhs))
