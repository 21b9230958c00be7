"""Bessel-type series and the closed-form kernel of the limit operator.

The building block is the entire two-variable series

    B_j(x, y) = sum_{n>=0} (-1)^{n+j} x^{n+j} y^n / ((n+j)! n!)
              = (-1)^j (x/y)^{j/2} J_j(2 sqrt(xy)),

together with its one-variable profile G_j(x) = J_j(2 sqrt(x)) / x^{j/2}.
Both are partial sums of one alternating series, which ``_alt_series``
evaluates elementwise over numpy arrays, sizing its block up front from
|term_n| <= max|first| max|z|^n / n!^2.  The causal kernel's order sum
sum_q B_q(x, y) phase^q is sum_q w^q J_q(2 sqrt(xy)) with |w| <= 1, which
``_order_sum`` takes along Miller's backward recurrence: on 300 seeded points
with y up to 200 it was within 1.1e-15 max(1, |sum|) of mpmath, and within
~M eps (M the recurrence's length) where x is close to y.  ``limit_kernel``
is the kernel's one evaluator, and every integral of the package goes through
it; ``kernel_causal`` and ``kernel_anticausal`` are public entry points that
check their region and call it.

The series B_j and G_j stop at the one truncation tolerance DEFAULT_TOL, and
every stopping rule bounds the truncation error only: once the term ratio
drops below 1/2 the remaining tail is of the order of the last term's bound,
so stopping once that bound is at most tol/2 keeps the truncation error of
the order of tol.  Rounding error from cancellation between the alternating
terms is not bounded.  It grows with xy: B_0(x, x) is off by ~1e-10 at
xy = 100, by ~1e-5 at xy = 225 and in every digit at xy = 400, so ``kernel
--lambda 100`` answers with no correct digit (ROADMAP item 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-12
CHECK_NODES = 64  # Gauss-Legendre nodes per panel of the integral-identity checks
_MAX_TERMS = 600
_BIG = 2.0**900  # the order sum's recurrence is scaled before |J_k| 2k/z passes this


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


def _alt_series(first, z, j) -> np.ndarray:
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
    shape = np.broadcast(first, z, j).shape
    first, z, j = (_filled(a, shape, t).ravel() for a, t in ((first, float), (z, float), (j, int)))
    z_max = float(np.abs(z).max(initial=0.0))
    n, bound = 1, float(np.abs(first).max(initial=0.0)) * z_max  # bound on |term_n|
    while not (z_max / (n + 1) ** 2 < 0.5 and bound <= 0.5 * DEFAULT_TOL):
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
        done = mag <= DEFAULT_TOL * np.maximum(1.0, np.abs(sums[1:]))
        done &= np.abs(z) / kk[1:] < 0.5
    cols = np.arange(first.size)
    stop = done.argmax(axis=0)
    out = sums[stop + 1, cols]
    if not (done[stop, cols].all() and np.isfinite(out).all()):
        raise ArithmeticError(f"series overflowed or did not settle (largest |z| = {z_max:.6g})")
    return out.reshape(shape)


def _bessel_b(j: int, x, y) -> np.ndarray | float:
    """B_j(x, y) elementwise, for one order j >= 0.

    A single point is a call of the public bessel_series, so that per-point
    kernel evaluations are seen, and traced, under that name.
    """
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return bessel_series(j, float(x), float(y))
    x = np.asarray(x, dtype=float)
    return _alt_series((-x) ** j / math.factorial(j), x * y, j)


def bessel_series(j: int, x: float, y: float) -> float:
    """Partial sum of B_j(x, y) for an order j >= 0 (scalar arguments)."""
    if j < 0:
        raise ValueError(f"order must be >= 0, got {j}")
    return float(_alt_series((-x) ** j / math.factorial(j), x * y, j))


def bessel_profile(j: int, x) -> float | np.ndarray:
    """Partial sum of G_j(x) = sum_{k>=0} (-1)^k x^k / (k! (k+j)!), j >= 0, elementwise in x."""
    if j < 0:
        raise ValueError(f"order must be >= 0, got {j}")
    return _scalar_or_array(_alt_series(1.0 / math.factorial(j), x, j))


def _miller_step(r, j, jp, h_re, h_im, w_re, w_im):
    """One step of _order_sum's recurrence, alike on floats and on arrays.

    From r = 2k/z, J_k, J_{k+1} and the Horner sum h = sum_{q>=k} w^(q-k) J_q
    in real and imaginary parts, returns J_{k-1}, J_k and the sum from k - 1.
    """
    jm = r * j - jp
    return jm, j, jm + (w_re * h_re - w_im * h_im), w_re * h_im + w_im * h_re


def _order_sum_point(z: float, w_re: float, w_im: float, top: int) -> complex:
    """_order_sum at one point with z > 0, its steps in Python floats."""
    j, jp, h_re, h_im, norm = 1.0, 0.0, 1.0, 0.0, 2.0
    for k in range(top, 0, -1):
        r = 2.0 * k / z
        if abs(j) * r > _BIG:
            f = math.ldexp(1.0, -math.frexp(j)[1])
            j, jp, h_re, h_im, norm = j * f, jp * f, h_re * f, h_im * f, norm * f
        j, jp, h_re, h_im = _miller_step(r, j, jp, h_re, h_im, w_re, w_im)
        if k % 2:
            norm += j if k == 1 else 2.0 * j
    return complex(h_re / norm, h_im / norm)


def _order_sum(x: np.ndarray, y: float, phase_bar: complex) -> np.ndarray:
    """sum_q B_q(x, y) phase_bar^q for each entry of the 1-d array x, 0 <= x <= y.

    As B_q(x, y) = (-1)^q (x/y)^(q/2) J_q(z) with z = 2 sqrt(xy), the sum is
    sum_q w^q J_q(z) with w = -phase_bar sqrt(x/y), |w| <= 1.  Each point runs
    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1} (DLMF 3.6(vi),
    10.74(iv)) from J_M = 1, J_{M+1} = 0 at its own even M >= z + 10 +
    4 sqrt(z), where |J_M(z)| < 1.4e-14 and falling fast, takes the q-sum by
    Horner's rule along it, and divides by J_0 + 2 sum_k J_2k, which is 1 for
    the true values.  Before a step that would take |J_k| 2k/z past _BIG, every
    running value of the point is scaled by the power of two that brings J_k
    into [1/2, 1), which is exact.  z = 0 gives 1.  A single point runs its
    steps in Python floats, an array runs the same steps elementwise from the
    largest M, each entry on zeros until its own M; the arithmetic is real, so
    a point gets the same value alone as in any array.
    """
    z = 2.0 * np.sqrt(x * y)
    live = z > 0
    with np.errstate(invalid="ignore"):  # y = 0 only where x = 0, so z = 0
        w = np.sqrt(x / y)
    w_re, w_im = -phase_bar.real * w, -phase_bar.imag * w
    top = 2.0 * np.ceil((z + 10.0 + 4.0 * np.sqrt(z)) / 2.0)
    if x.size == 1:
        point = (float(z[0]), float(w_re[0]), float(w_im[0]), int(top[0]))
        return np.array([_order_sum_point(*point) if live[0] else 1.0], dtype=complex)
    z = np.where(live, z, 1.0)  # the steps of a point with z = 0 are discarded below
    starts = {int(k): np.flatnonzero(top == k) for k in set(top.tolist())}
    j, jp, h_re, h_im, norm = (np.zeros(x.size) for _ in range(5))
    with np.errstate(over="ignore"):
        for k in range(int(top.max(initial=0.0)), 0, -1):
            if k in starts:
                new = starts[k]
                j[new], h_re[new], h_im[new], norm[new] = 1.0, 1.0, 0.0, 2.0
            r = 2.0 * k / z
            big = np.abs(j) * r > _BIG
            if big.any():
                f = np.ldexp(1.0, -np.frexp(j[big])[1])
                for a in (j, jp, h_re, h_im, norm):
                    a[big] *= f
            j, jp, h_re, h_im = _miller_step(r, j, jp, h_re, h_im, w_re, w_im)
            if k % 2:
                norm += j if k == 1 else 2.0 * j
    out = np.ones(x.size, dtype=complex)
    out.real[live] = (h_re / norm)[live]
    out.imag[live] = (h_im / norm)[live]
    return out


def _points(x, y, inside: Callable, region: str) -> tuple[np.ndarray, np.ndarray]:
    """x and y as broadcast float arrays; ValueError unless inside(x, y) holds everywhere."""
    shape = np.broadcast(x, y).shape
    x, y = _filled(x, shape, float), _filled(y, shape, float)
    bad = ~inside(x, y)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"({x.flat[i]}, {y.flat[i]}) not in {region}")
    return x, y


def _at(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The entries of a where mask holds, flat; a single point (0-d) stays itself."""
    return a if a.ndim == 0 else a[mask]


def limit_kernel(x: float | np.ndarray, y: float | np.ndarray, iv: Interval,
                 nu: ComplexParam) -> complex | np.ndarray:
    """Kernel of (limit operator - identity) on [a, b)^2; x and y broadcast.

    With r = |nu| it is 0 on the diagonal, and off it
        nu B_0((y-a) r, (b-x) r) + [x < y] (r B_1((b-a) r, (y-x) r)
        - (nu + conj(nu)) sum_{q>=0} B_q((y-x) r, (b-a) r) (conj(nu)/r)^q).
    Each term is formed once over the points it applies to, the q-sum by one
    backward recurrence per point (see _order_sum).  A single point stays 0-d,
    so its B_0 and B_1 are calls of bessel_series.
    """
    x, y = _points(x, y, lambda u, v: (iv.a <= u) & (u < iv.b) & (iv.a <= v) & (v < iv.b),
                   f"the square of {iv}")
    out = np.zeros(x.shape, dtype=complex)
    r, v, off = nu.modulus, nu.value, x != y
    if r == 0.0 or not off.any():
        return _scalar_or_array(out)
    b0 = _bessel_b(0, (_at(y, off) - iv.a) * r, (iv.b - _at(x, off)) * r)
    # numpy may flag overflow in a product whose value is finite; the values are judged below
    with np.errstate(over="ignore", invalid="ignore"):
        out[off] = v * b0
    causal = x < y
    if causal.any():
        d = (_at(y, causal) - _at(x, causal)) * r
        b1 = _bessel_b(1, iv.width * r, d)
        two_lam = v + v.conjugate()  # inf for lam near the float64 limit
        with np.errstate(over="ignore", invalid="ignore"):
            part = _at(out, causal) + r * b1
            if two_lam != 0:
                part -= two_lam * _order_sum(np.ravel(d), iv.width * r, v.conjugate() / r)
        out[causal] = part
    if not np.isfinite(out).all():  # e.g. nu + conj(nu) overflows for lam near the float64 limit
        raise ArithmeticError("a kernel value is not finite")
    return _scalar_or_array(out)


def kernel_causal(x: float | np.ndarray, y: float | np.ndarray, iv: Interval,
                  nu: ComplexParam) -> complex | np.ndarray:
    """Kernel value on the causal region a <= x < y < b; x and y broadcast.

    It is limit_kernel's formula with the [x < y] terms; see limit_kernel.
    """
    return limit_kernel(*_points(x, y, lambda u, v: (iv.a <= u) & (u < v) & (v < iv.b),
                                 f"the causal region of {iv}"), iv, nu)


def kernel_anticausal(x: float | np.ndarray, y: float | np.ndarray, iv: Interval,
                      nu: ComplexParam) -> complex | np.ndarray:
    """Kernel value on the anticausal region a <= y < x < b: nu*B_0((y-a)|nu|, (b-x)|nu|)."""
    return limit_kernel(*_points(x, y, lambda u, v: (iv.a <= v) & (v < u) & (u < iv.b),
                                 f"the anticausal region of {iv}"), iv, nu)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=None)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule, read-only.

    Newton's method on P_n from the estimates -cos(pi (k - 1/4) / (n + 1/2)),
    until no node moves by more than 1e-15; the weights are
    2 / ((1 - x^2) P_n'(x)^2) at the final nodes, and both are symmetrised
    about 0.
    """
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(20):
        p, slope = _legendre(n, x)
        step = p / slope
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    _, slope = _legendre(n, x)
    nodes = 0.5 * (x - x[::-1])
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    weights = 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _scalar_or_array(values: np.ndarray) -> float | complex | np.ndarray:
    """A Python number for a 0-d array, else the array."""
    return values.item() if values.ndim == 0 else values


def gauss_legendre(fn: Callable[[np.ndarray], np.ndarray], lo, hi, n: int):
    """n-node Gauss-Legendre quadrature of fn over the panels (lo, hi).

    lo and hi broadcast to the shape of the panels.  fn is called once, on the
    nodes of every panel as one array of shape (*panels, n), and returns the
    values in that shape.  One scalar panel gives a Python number, else an
    array of the panels' shape.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    nodes, weights = _gl_nodes(n)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    values = fn((0.5 * (lo + hi))[..., None] + half[..., None] * nodes)
    return _scalar_or_array(half * (values @ weights))


def isometry_residual(x, y, iv: Interval, nu: ComplexParam) -> complex | np.ndarray:
    """Defect of the isometry identity at a < x < y < b; zero when the operator is unitary.

    K(x,y) + conj(K(y,x)) + int_a^b K(x,z) conj(K(y,z)) dz, the (x, y) entry of
    K + K* + KK* for K = limit_kernel.  x and y broadcast; the integral is one
    quadrature over the panels [a, x), [x, y) and [y, b) of every point,
    CHECK_NODES Gauss-Legendre nodes each, split at x and y because the kernel
    switches branch there.  A Python complex for scalar x and y, else a
    complex array.
    """
    x, y = _points(x, y, lambda u, v: (iv.a < u) & (u < v) & (v < iv.b),
                   f"a < x < y < b for {iv}")
    ends = np.stack(np.broadcast_arrays(iv.a, x, y, iv.b), axis=-1)
    rows = np.stack([x, y])[..., None, None]  # against the (*points, 3, CHECK_NODES) nodes

    def integrand(z: np.ndarray) -> np.ndarray:
        kx, ky = limit_kernel(rows, z, iv, nu)
        return kx * np.conjugate(ky)

    kxy, kyx = limit_kernel(np.stack([x, y]), np.stack([y, x]), iv, nu)
    panels = gauss_legendre(integrand, ends[..., :-1], ends[..., 1:], CHECK_NODES)
    return _scalar_or_array(kxy + np.conjugate(kyx) + panels.sum(axis=-1))


def lommel_residual(alpha, beta, x) -> float | np.ndarray:
    """|int_0^x G_0(alpha z) G_0(beta z) dz - closed form| (Lommel integral).

    Closed form: (alpha x G_1(alpha x) G_0(beta x) - beta x G_1(beta x)
    G_0(alpha x)) / (alpha - beta); requires alpha != beta.  The arguments
    broadcast, and all integrals are one quadrature; a float for scalar
    arguments, else an array.
    """
    alpha, beta, x = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (alpha, beta, x)))
    if (alpha <= 0).any() or (beta <= 0).any():
        raise ValueError("need alpha, beta > 0")
    if (alpha == beta).any():
        raise ValueError("closed form needs alpha != beta")
    if (x < 0).any():
        raise ValueError("need x >= 0")
    scales = np.stack([alpha, beta])[..., None]
    lhs = gauss_legendre(lambda z: bessel_profile(0, scales * z).prod(axis=0), 0.0, x, CHECK_NODES)
    ax, bx = alpha * x, beta * x
    g0a, g0b = bessel_profile(0, np.stack([ax, bx]))
    g1a, g1b = bessel_profile(1, np.stack([ax, bx]))
    rhs = (ax * g1a * g0b - bx * g1b * g0a) / (alpha - beta)
    return _scalar_or_array(np.abs(lhs - rhs))


def sonine_gegenbauer_residual(beta, z) -> float | np.ndarray:
    """|int_0^z G_1(w) G_1(w + beta) dw - closed form| (Sonine-Gegenbauer type).

    Closed form: (z G_1(z) G_0(z+beta) - (z+beta) G_1(z+beta) G_0(z)) / beta
    + G_1(beta).  The arguments broadcast, and all integrals are one
    quadrature; a float for scalar arguments, else an array.
    """
    beta, z = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (beta, z)))
    if (beta <= 0).any():
        raise ValueError("need beta > 0")
    if (z < 0).any():
        raise ValueError("need z >= 0")
    shifts = np.stack([np.zeros_like(beta), beta])[..., None]
    lhs = gauss_legendre(lambda w: bessel_profile(1, w + shifts).prod(axis=0), 0.0, z, CHECK_NODES)
    zb = z + beta
    g1z, g1zb, g1b = bessel_profile(1, np.stack([z, zb, beta]))
    g0z, g0zb = bessel_profile(0, np.stack([z, zb]))
    rhs = (z * g1z * g0zb - zb * g1zb * g0z) / beta + g1b
    return _scalar_or_array(np.abs(lhs - rhs))
