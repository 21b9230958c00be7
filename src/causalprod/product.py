"""Ordered double products of plane rotations and their continuum-kernel estimates.

The N-point approximation is the product over all index pairs 1 <= j < k <= N
of the unitary that rotates the (j, k) coordinate plane by the angle
(b-a)|nu|/N, with phase nu/|nu| on the lower off-diagonal entry.  Factors with
disjoint index pairs commute, so the product is well defined once the pair
sequence is *allowed*: any pair must come before every pair that dominates it
componentwise.  Entries of (product - identity), scaled by N/(b-a), estimate
the limit kernel at cell midpoints to first order in 1/N.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import binomial
from .kernel import (
    ComplexParam,
    Interval,
    gauss_legendre,
    kernel_anticausal,
    kernel_causal,
    limit_kernel,
)

MAX_PRODUCT_DIM = 512


@dataclass(frozen=True)
class PairOrdering:
    """A sequencing of all pairs (j, k), 1 <= j < k <= N."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def row_major(cls, n: int) -> "PairOrdering":
        return cls(n, tuple((j, k) for j in range(1, n) for k in range(j + 1, n + 1)))

    @classmethod
    def column_major(cls, n: int) -> "PairOrdering":
        return cls(n, tuple((j, k) for k in range(2, n + 1) for j in range(1, k)))

    @classmethod
    def random_allowed(cls, n: int, seed: int) -> "PairOrdering":
        """Sample an allowed ordering by repeatedly popping a random minimal pair.

        The sorted list of minimal pairs is kept up to date as pairs are
        popped: removing (j, k) can only make (j+1, k) and (j, k+1) minimal.
        """
        rng = random.Random(seed)
        remaining = {(j, k) for j in range(1, n) for k in range(j + 1, n + 1)}
        minimal = [(1, 2)] if n >= 2 else []
        out: list[tuple[int, int]] = []
        while minimal:
            j, k = minimal.pop(rng.randrange(len(minimal)))
            out.append((j, k))
            remaining.remove((j, k))
            for p, q in ((j + 1, k), (j, k + 1)):
                if (p, q) in remaining and (p - 1, q) not in remaining \
                        and (p, q - 1) not in remaining:
                    minimal.append((p, q))
            minimal.sort()
        return cls(n, tuple(out))

    def is_allowed(self) -> bool:
        """True iff every pair precedes its componentwise successors.

        Checking the two covering moves (j, k) -> (j+1, k) and (j, k) -> (j, k+1)
        suffices by transitivity.
        """
        if sorted(self.pairs) != [(j, k) for j in range(1, self.n) for k in range(j + 1, self.n + 1)]:
            return False
        pos = {pair: i for i, pair in enumerate(self.pairs)}
        for (j, k), i in pos.items():
            if (j + 1, k) in pos and pos[(j + 1, k)] < i:
                return False
            if (j, k + 1) in pos and pos[(j, k + 1)] < i:
                return False
        return True


def _sweep(n: int, ordering: PairOrdering | None, diag: float, up: complex,
           lo: complex) -> np.ndarray:
    """Ordered product of the factors [[diag, up], [lo, diag]] on each pair (j, k).

    The ordering is checked first (row-major when None).  Each factor is
    applied as a two-column update of the accumulated matrix (O(n) per
    factor), never as a dense multiply.  With up = lo = 0 (nu = 0) every
    factor is the identity and the loop is skipped.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_PRODUCT_DIM:
        raise ValueError(f"n={n} exceeds cap {MAX_PRODUCT_DIM}")
    if ordering is None:
        ordering = PairOrdering.row_major(n)
    elif ordering.n != n:
        raise ValueError(f"ordering built for n={ordering.n}, product needs n={n}")
    elif not ordering.is_allowed():
        raise ValueError("pair ordering is not allowed")
    m = np.eye(n, dtype=complex)
    if up == 0 and lo == 0:
        return m
    for j, k in ordering.pairs:
        cj = m[:, j - 1].copy()
        ck = m[:, k - 1]
        m[:, j - 1] = diag * cj + lo * ck
        m[:, k - 1] = up * cj + diag * ck
    return m


def double_product(n: int, iv: Interval, nu: ComplexParam,
                   ordering: PairOrdering | None = None) -> np.ndarray:
    """Ordered product of all rotation factors, identical for every allowed ordering.

    The factor on (j, k) is cos((b-a)|nu|/n) on rows j and k, -conj(nu)/|nu|
    * sin at (j, k) and +nu/|nu| * sin at (k, j), identity elsewhere; for
    n = 2 the product is that single factor.
    """
    theta = iv.width * nu.modulus / max(n, 1)  # the sweep refuses n < 2
    s = math.sin(theta)
    phase = nu.value / nu.modulus if nu.modulus else 0j
    return _sweep(n, ordering, math.cos(theta), -phase.conjugate() * s, phase * s)


# Largest |c|^-t the blocked scan of product_columns may form.  The scan's
# absolute error does not depend on it; it only keeps c^-t and c^t finite.
_SCAN_GROWTH = 1e8


def product_columns(n: int, iv: Interval, nu: ComplexParam, cols: Sequence[int]) -> np.ndarray:
    """Columns ``cols`` (0-based) of the product, as an n x len(cols) block.

    Same value as ``double_product(n, iv, nu)[:, cols]`` in O(n^2 len(cols))
    work, without forming an n x n array.  The row-major factors are applied
    right to left to the unit columns, as row updates.  Sweep j touches row j
    and rows k = n, n-1, ..., j+1 once each: the row-j accumulator obeys the
    first-order recurrence a <- c a + up v_k, and row k becomes lo a + c v_k
    with a taken before the step.  Each sweep solves the recurrence as a
    scaled cumsum, cut into blocks of length L with |c|^-(L-1) <= _SCAN_GROWTH
    so that no power of c overflows; a block of length 1 is the plain step
    and never divides by c.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    cols = [int(col) for col in cols]
    if any(not 0 <= col < n for col in cols):
        raise ValueError(f"columns must lie in [0, {n}), got {cols}")
    # u holds the block with its rows reversed, so every sweep reads forward:
    # sweep r (1..n-1) has accumulator u[r] and steps through u[0], ..., u[r-1].
    u = np.zeros((n, len(cols)), dtype=complex)
    u[[n - 1 - col for col in cols], np.arange(len(cols))] = 1.0
    if nu.modulus == 0.0:
        return u[::-1].copy()
    theta = iv.width * nu.modulus / n
    c, s = math.cos(theta), math.sin(theta)
    phase = nu.value / nu.modulus
    up, lo = -phase.conjugate() * s, phase * s
    decay = -math.log(abs(c)) if c else math.inf
    block = n if decay == 0.0 else min(n, 1 + int(math.log(_SCAN_GROWTH) / decay))
    pw = (c ** np.arange(block + 1))[:, None]    # c^0 .. c^L
    ipw = (c ** -np.arange(block))[:, None]      # c^0 .. c^-(L-1)
    for r in range(1, n):
        a = u[r]
        for start in range(0, r, block):
            stop = min(start + block, r)
            m = stop - start
            x = u[start:stop]
            # a_t = c^t a_0 + up c^(t-1) sum_{s<=t} c^-(s-1) x_s, t = 1..m
            acc = pw[1:m + 1] * a + up * pw[:m] * np.cumsum(ipw[:m] * x, axis=0)
            new = c * x
            new[0] += lo * a
            new[1:] += lo * acc[:-1]
            u[start:stop] = new
            a = acc[-1]
        u[r] = a
    return u[::-1].copy()


def linearized_product(n: int, iv: Interval, nu: ComplexParam,
                       ordering: PairOrdering | None = None) -> np.ndarray:
    """Ordered product of the first-order factors I + ((b-a)/n) Z(j, k).

    Z(j, k) has -conj(nu) at (j, k) and +nu at (k, j).  Differs from the full
    rotation product by O(1/n) in max norm.
    """
    step = iv.width / max(n, 1)  # the sweep refuses n < 2
    return _sweep(n, ordering, 1.0, -nu.value.conjugate() * step, nu.value * step)


def chain_count_matrix(n: int, s: int, r: int, r_prime: int, iv: Interval) -> np.ndarray:
    """Scaled matrix counting increasing index chains with a given rank profile.

    Entry (j, k) with j < k counts, times ((b-a)/n)^s, the chains with r
    indices below j, s-1-r-r' strictly between j and k, and r' above k; with
    r + r' > s the roles reverse and the support moves to k < j.  The split
    case r + r' == s is empty and rejected.
    """
    if r < 0 or r_prime < 0 or r > s or r_prime > s:
        raise ValueError(f"rank ({r}, {r_prime}) out of range for s={s}")
    if r + r_prime == s:
        raise ValueError(f"rank ({r}, {r_prime}) with r + r' == s is infeasible")
    if s > n - 1:
        raise ValueError(f"need s <= n - 1, got s={s}, n={n}")
    scale = (iv.width / n) ** s
    m = np.zeros((n, n))
    if r + r_prime < s:
        mid = s - 1 - r - r_prime
        for j in range(1, n + 1):
            left = binomial(j - 1, r)
            if left == 0:
                continue
            for k in range(j + 1, n + 1):
                m[j - 1, k - 1] = scale * left * binomial(k - j - 1, mid) * binomial(n - k, r_prime)
    else:
        mid = r + r_prime - s - 1
        for k in range(1, n + 1):
            left = binomial(k - 1, s - r_prime)
            if left == 0:
                continue
            for j in range(k + 1, n + 1):
                m[j - 1, k - 1] = scale * left * binomial(j - k - 1, mid) * binomial(n - j, s - r)
    return m


def midpoints(n: int, iv: Interval) -> np.ndarray:
    """Cell midpoints a + (j - 1/2)(b - a)/n for j = 1..n."""
    return iv.a + (np.arange(1, n + 1) - 0.5) * (iv.width / n)


def kernel_estimate(w: np.ndarray, iv: Interval) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint grid and entrywise kernel estimate (W - I) * n / (b - a) of the product W on iv."""
    n = w.shape[0]
    est = (w - np.eye(n)) * (n / iv.width)
    return midpoints(n, iv), est


def sample_points(iv: Interval) -> tuple[tuple[float, float], ...]:
    """Deterministic interior sample grid keeping clear of the boundary and diagonal.

    An 8 x 8 grid from 12% of the width inside each end, without the pairs
    closer than 8% of the width to the diagonal.
    """
    w = iv.width
    xs = np.linspace(iv.a + 0.12 * w, iv.b - 0.12 * w, 8)
    return tuple(
        (float(x), float(y))
        for x in xs
        for y in xs
        if abs(x - y) >= 0.08 * w
    )


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Polynomial on [lo, hi), zero elsewhere; coeffs are ascending powers of x."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi})")

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """Value at x, a float or an array; zero outside [lo, hi)."""
        x = np.asarray(x, dtype=float)
        inside = (self.lo <= x) & (x < self.hi)
        return np.where(inside, sum(c * x**e for e, c in enumerate(self.coeffs)), 0.0)[()]

    def integral(self, lo: float, hi: float) -> float:
        """Exact integral over [lo, hi) intersected with the support."""
        lo, hi = max(lo, self.lo), min(hi, self.hi)
        if hi <= lo:
            return 0.0
        return sum(c * (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
                   for e, c in enumerate(self.coeffs))


def indicator_components(fn: PiecewisePolynomial, n: int, iv: Interval) -> np.ndarray:
    """Exact coefficients of fn against the normalized cell indicators."""
    step = iv.width / n
    scale = math.sqrt(n / iv.width)
    return np.array([
        scale * fn.integral(iv.a + j * step, iv.a + (j + 1) * step)
        for j in range(n)
    ])


def bilinear_form(w: np.ndarray, iv: Interval, left: PiecewisePolynomial,
                  right: PiecewisePolynomial) -> complex:
    """<left, (W - I) right> for the product W on iv, computed exactly in the indicator basis.

    W - I kills the orthogonal complement of the cell indicators and maps
    their span to itself, so the exact function components suffice.
    """
    n = w.shape[0]
    vl = indicator_components(left, n, iv)
    vr = indicator_components(right, n, iv)
    return complex(vl @ ((w - np.eye(n)) @ vr))


def limit_bilinear_form(left: PiecewisePolynomial, right: PiecewisePolynomial,
                        iv: Interval, nu: ComplexParam, quad_n: int = 48) -> complex:
    """<left, K right> for the limit kernel K, by nested Gauss-Legendre.

    The inner integral is split at the diagonal, where the kernel switches
    between its causal and anticausal branches; each inner panel is one array
    evaluation of the kernel.
    """
    if nu.modulus == 0.0:
        return 0j

    def inner(x: float) -> complex:
        total = 0j
        lo, hi = right.lo, right.hi
        if x > lo:
            total += gauss_legendre(
                lambda y: kernel_anticausal(x, y, iv, nu) * right(y),
                lo, min(x, hi), quad_n)
        if x < hi:
            total += gauss_legendre(
                lambda y: kernel_causal(x, y, iv, nu) * right(y),
                max(x, lo), hi, quad_n)
        return total

    return gauss_legendre(lambda xs: np.array([left(x) * inner(x) for x in xs]),
                          left.lo, left.hi, quad_n)


def first_excluded_term_bound(n: int, iv: Interval, nu: ComplexParam) -> float:
    """Heuristic O(1/n) cap on the midpoint estimate error.

    Each factor's linearization drops a term quadratic in the rotation angle
    (b-a)|nu|/n and an entry is touched by O(n) factors; the remaining
    index-count vs monomial defect carries the same 1/n order with constants
    controlled by e^{(b-a)|nu|}.  Generous by design: used as an upper fence
    in convergence studies, not as an error model.
    """
    u = iv.width * nu.modulus
    return u * u * (1.0 + u) * math.exp(u) / n


@dataclass(frozen=True)
class ConvergenceStudy:
    """Max midpoint errors against the limit kernel for a ladder of sizes."""

    ns: tuple[int, ...]
    max_errors: tuple[float, ...]
    bounds: tuple[float, ...]
    fitted_rate: float

    def ratios(self) -> tuple[float, ...]:
        return tuple(
            self.max_errors[i] / self.max_errors[i + 1]
            for i in range(len(self.ns) - 1)
            if self.max_errors[i + 1] > 0
        )


def convergence_study(ns: Sequence[int], samples: Iterable[tuple[float, float]],
                      iv: Interval, nu: ComplexParam) -> ConvergenceStudy:
    """Per-n max error between the product's kernel estimate and the limit kernel.

    Each sample point is mapped to its containing cell pair; the comparison
    happens at that cell's midpoints.  Only the sampled columns of the product
    are formed (``product_columns``), and the limit kernel is evaluated at all
    sampled cells in one array call.  The fitted rate is the slope of
    log(error) against log(n); errors that are exactly zero (nu = 0) give a
    fitted rate of 0 by convention.  A non-finite estimate or error raises
    ArithmeticError rather than dropping out of the running maximum.
    """
    ns = tuple(ns)
    if any(n < 2 for n in ns):
        raise ValueError(f"sizes must be >= 2, got {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {ns}")
    samples = tuple(samples)
    errors = []
    for n in ns:
        step = iv.width / n
        cells = [(min(int((x - iv.a) / step), n - 1), min(int((y - iv.a) / step), n - 1))
                 for x, y in samples]
        cells = [(j, k) for j, k in cells if j != k]
        cols = sorted({k for _, k in cells})
        w = product_columns(n, iv, nu, cols)
        where = {k: i for i, k in enumerate(cols)}
        js = np.array([j for j, _ in cells], dtype=int)
        ks = np.array([k for _, k in cells], dtype=int)
        # off the diagonal, (W - I)[j, k] = W[j, k]
        est = w[js, [where[k] for k in ks]] * (n / iv.width)
        mids = midpoints(n, iv)
        exact = limit_kernel(mids[js], mids[ks], iv, nu)
        err = np.abs(est - exact)
        if not np.isfinite(err).all():
            i = int(np.isfinite(err).argmin())
            raise ArithmeticError(f"non-finite kernel estimate at n={n}, cell "
                                  f"({js[i]}, {ks[i]}): {est[i]} vs {exact[i]}")
        errors.append(float(err.max(initial=0.0)))
    bounds = tuple(first_excluded_term_bound(n, iv, nu) for n in ns)
    if all(e > 0 for e in errors):
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        rate = float(-slope)
    else:
        rate = 0.0
    return ConvergenceStudy(ns=ns, max_errors=tuple(errors), bounds=bounds, fitted_rate=rate)
