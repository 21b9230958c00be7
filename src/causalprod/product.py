"""Ordered double products of plane rotations and their continuum-kernel estimates.

The N-point approximation is the product over all index pairs 1 <= j < k <= N
of the unitary that rotates the (j, k) coordinate plane by the angle
(b-a)|nu|/N, with phase nu/|nu| on the lower off-diagonal entry.  Factors with
disjoint index pairs commute, so the product is well defined once the pair
sequence is *allowed*: any pair must come before every pair that dominates it
componentwise.  Entries of (product - identity), scaled by N/(b-a), estimate
the limit kernel at cell midpoints to first order in 1/N.

Two disjoint routes compute the product.  ``double_product`` forms the dense
N x N array, one two-column update per factor (the oracle, N <= 512).
``apply_product`` applies it to an N x k block by groups of g ~ sqrt(N)
sweeps: factors on disjoint rows commute, so a group passes a block of g
earlier rows as one tile, and the tiles on one anti-diagonal touch disjoint
rows and run as one batched matrix product.  Every tile, and the product of
a group's own rows, is composed from the 2 x 2 step by halving: the first
half of the accumulators may pass every earlier row before the rest do.  The
error is rounding only: per entry, at most 5.3e-15 against the dense product
for N <= 512 and 7.1e-15 against ``tests/product_oracle.py::product_columns``
for N <= 4096.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import binomial
from .config import CONVERGE_DIM_CAP, MAX_PRODUCT_DIM
from .kernel import (
    ComplexParam,
    Interval,
    gauss_legendre,
    limit_kernel,
)

_PANEL_NODES = 32  # Gauss-Legendre nodes per panel of limit_bilinear_form


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


def _grouped_sweep(u: np.ndarray, c: float, up: complex, lo: complex) -> None:
    """Apply sweeps 1..n-1 to u in place, g ~ sqrt(n), a power of two, at a time.

    u is k x n and column t holds row t of the reversed block, so sweep r has
    accumulator column r and steps through columns 0..r-1.  Rows are held as
    columns, so every map below is a right multiplier on rows in their order.
    tile(a, p) passes a accumulators through the p rows before them: at
    a = p = 1 it is the step [[c, up], [lo, c]]; otherwise the first a // 2
    accumulators may pass every earlier row before the rest do, so it is two
    half tiles and one matmul, and a < p is tile(p, a) with the order of the
    rows reversed (the product is persymmetric).  A tile's diagonal is c^a on
    the earlier rows and c^p on the accumulators, taken from pow.  own(s),
    the sweeps of s rows among themselves, is own(h) on the first h = s // 2,
    then tile(s - h, h), then own(s - h) on the rest.

    A group is g consecutive sweeps.  The first 1 + (n-1) % g rows (the lead,
    block T = -1) take own(lead) first, so every later block is a whole group,
    block T passes group R by tile(g, g) and the lead by tile(g, lead).  Tile
    (R, T) needs only tiles (R, T-1) and (R-1, T), and own(g) of group T comes
    between tiles (T, T-1) and (T+1, T).  So the tiles on one anti-diagonal
    R + T touch disjoint rows, and the sweep runs over the ~2 n/g
    anti-diagonals, each one batched matrix product plus at most one lead
    tile and one own(g).  The builders last one call and meet few shapes (13
    tiles at g = 16).
    """
    @functools.cache
    def tile(a: int, p: int) -> np.ndarray:
        if a < p:
            return tile(p, a)[::-1, ::-1].T
        if a == 1:
            return np.array([[c, up], [lo, c]])
        h = a // 2
        t = np.eye(p + a, dtype=complex)
        t[:p + h, :p + h] = tile(h, p)
        rest = [*range(p), *range(p + h, p + a)]  # the earlier rows and the last a - h accumulators
        t[:, rest] = t[:, rest] @ tile(a - h, p)
        np.fill_diagonal(t[:p, :p], c ** a)
        np.fill_diagonal(t[p:, p:], c ** p)
        return t

    @functools.cache
    def own(s: int) -> np.ndarray:
        if s == 1:
            return np.ones((1, 1))
        h = s // 2
        d = tile(s - h, h).copy()
        d[:h] = own(h) @ d[:h]
        d[:, h:] = d[:, h:] @ own(s - h)
        return d

    n = u.shape[1]
    g = 1 << round(math.log2(n) / 2)
    start = 1 + (n - 1) % g
    lead = u[:, :start]
    lead[:] = lead @ own(start)
    # a view: groups[:, R] holds group R's rows, and writes to it land in u
    groups = u[:, start:].reshape(len(u), (n - start) // g, g)
    count = groups.shape[1]
    past = groups[:, ::-1]  # past[:, count - 1 - T] is block T
    for diag in range(-1, 2 * count - 1):  # tile (R, T) on anti-diagonal R + T; the lead is T = -1
        if diag + 1 < count:
            w = np.concatenate((lead, groups[:, diag + 1]), axis=1) @ tile(g, start)
            lead[:], groups[:, diag + 1] = w[:, :start], w[:, start:]
        r0, r1 = diag // 2 + 1, min(diag, count - 1) + 1  # groups R in [r0, r1) meet T = diag - R
        if r0 < r1:
            acc = groups[:, r0:r1]
            blk = past[:, count - 1 - diag + r0:count - 1 - diag + r1]
            w = np.concatenate((blk, acc), axis=2)
            w = (w.reshape(-1, 2 * g) @ tile(g, g)).reshape(w.shape)
            blk[:], acc[:] = w[..., :g], w[..., g:]
        if diag % 2 == 0:
            groups[:, diag // 2] = groups[:, diag // 2] @ own(g)


def apply_product(n: int, iv: Interval, nu: ComplexParam, block: np.ndarray) -> np.ndarray:
    """The product applied to ``block`` (n entries or n x k): same value as
    ``double_product(n, iv, nu) @ block``, without forming an n x n array.

    The row-major factors are applied right to left as row updates.  With the
    block's rows reversed, sweep r (1..n-1) has accumulator row r and steps
    through rows 0..r-1: each step maps (a, v) to (c a + up v, lo a + c v).
    ``_grouped_sweep`` passes blocks of g ~ sqrt(n) rows through groups of g
    sweeps by tiles composed from that step, one anti-diagonal of tiles per
    batched matrix product: ~2 n/g Python-level steps and ~2 n^2 k complex
    multiply-adds in BLAS for k columns, in O(nk + n) memory.

    Error model: every tile is unitary (a product of the rotations it stands
    for), so nothing is divided and no power grows; the error is rounding
    only.  Each tile's O(1) diagonal comes from pow: formed by the products,
    it reads 1.14e-13 against the scan below at n = 4096, nu = 1+0.5i.  Most
    of the rest is made where the tiles are formed: with them formed in long
    double and rounded once, angle 1.5 at n = 1000 falls from 7.1e-15 to
    1.7e-15, and the remainder, at most 3.7e-15, is the rounding of each row
    as it passes its ~n/g tiles.  Per entry, with nu in {0.6+0.8i, 3-4i,
    1+0.5i, 1, i}, |fast - dense| <= 5.3e-15 for n <= 512, and <= 1.6e-15,
    5.6e-30, 1.4e-15 for n <= 80 at rotation angles 1.5, pi/2, 3.0.  Against
    ``tests/product_oracle.py::product_columns`` (long double) on 2-5 unit
    columns, |fast - scan| <= 3.6e-15 at n = 1024, 4096 (also nu = i, 6+8i)
    and <= 1.6e-30, 7.1e-15, 3.5e-15 at rotation angles pi/2 (n = 520), 1.5,
    2.34 (n = 1000).  Sizes above CONVERGE_DIM_CAP are refused.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > CONVERGE_DIM_CAP:
        raise ValueError(f"n={n} exceeds cap {CONVERGE_DIM_CAP}")
    block = np.asarray(block)
    if block.ndim not in (1, 2) or block.shape[0] != n:
        raise ValueError(f"block must have {n} rows, got shape {block.shape}")
    u = np.array(block.reshape(n, block.size // n)[::-1].T, dtype=complex, order="C")
    if nu.modulus != 0.0:
        theta = iv.width * nu.modulus / n
        s = math.sin(theta)
        phase = nu.value / nu.modulus
        _grouped_sweep(u, math.cos(theta), -phase.conjugate() * s, phase * s)
    return np.ascontiguousarray(u[:, ::-1].T).reshape(block.shape)


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
    indices below j, s-1-r-r' strictly between j and k, and r' above k.  With
    r + r' > s the roles reverse: the matrix is the transpose of the one for the
    rank (s - r', s - r), supported on k < j.  The split case r + r' == s is
    empty and rejected.
    """
    if r < 0 or r_prime < 0 or r > s or r_prime > s:
        raise ValueError(f"rank ({r}, {r_prime}) out of range for s={s}")
    if r + r_prime == s:
        raise ValueError(f"rank ({r}, {r_prime}) with r + r' == s is infeasible")
    if s > n - 1:
        raise ValueError(f"need s <= n - 1, got s={s}, n={n}")
    if r + r_prime > s:
        return chain_count_matrix(n, s, s - r_prime, s - r, iv).T
    scale = (iv.width / n) ** s
    mid = s - 1 - r - r_prime
    m = np.zeros((n, n))
    for j in range(1, n + 1):
        left = binomial(j - 1, r)
        if left == 0:
            continue
        for k in range(j + 1, n + 1):
            m[j - 1, k - 1] = scale * left * binomial(k - j - 1, mid) * binomial(n - k, r_prime)
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


def bilinear_form(n: int, iv: Interval, nu: ComplexParam, left: PiecewisePolynomial,
                  right: PiecewisePolynomial) -> complex:
    """<left, (W - I) right> for the n-point product W on iv, exactly in the indicator basis.

    W - I kills the orthogonal complement of the cell indicators and maps
    their span to itself, so the exact function components suffice.  W acts
    on the one column of right's components through ``apply_product``.
    """
    vl = indicator_components(left, n, iv)
    vr = indicator_components(right, n, iv)
    return complex(vl @ (apply_product(n, iv, nu, vr) - vr))


def limit_bilinear_form(left: PiecewisePolynomial, right: PiecewisePolynomial,
                        iv: Interval, nu: ComplexParam) -> complex:
    """<left, K right> for the limit kernel K, by nested Gauss-Legendre.

    The inner integral at x is split at m = clip(x, right.lo, right.hi), where
    the kernel switches branch, into [right.lo, m) and [m, right.hi); a panel
    of width zero adds 0.  The outer integral is split at right's support
    ends, where the inner panels change shape.  Each panel gets _PANEL_NODES
    nodes, and the inner panels of all nodes of an outer panel are one kernel
    call.
    """
    if nu.modulus == 0.0:
        return 0j

    def outer(xs: np.ndarray) -> np.ndarray:
        m = np.clip(xs, right.lo, right.hi)
        ends = np.stack(np.broadcast_arrays(right.lo, m, right.hi), axis=-1)
        inner = gauss_legendre(lambda y: limit_kernel(xs[..., None, None], y, iv, nu) * right(y),
                               ends[..., :-1], ends[..., 1:], _PANEL_NODES)
        return left(xs) * inner.sum(axis=-1)

    cuts = sorted({left.lo, left.hi, *(c for c in (right.lo, right.hi) if left.lo < c < left.hi)})
    return sum(gauss_legendre(outer, lo, hi, _PANEL_NODES) for lo, hi in zip(cuts, cuts[1:]))


def first_excluded_term_bound(n: int, iv: Interval, nu: ComplexParam) -> float:
    """Heuristic O(1/n) cap on the midpoint estimate error, in its units of 1/length.

    Each factor's linearization drops a term quadratic in the rotation angle
    (b-a)|nu|/n and an entry is touched by O(n) factors; the remaining
    index-count vs monomial defect carries the same 1/n order with constants
    controlled by e^{(b-a)|nu|}.  The estimate is an entry of (W - I) n/(b-a),
    so the dimensionless cap is divided by b - a.  Generous by design: used as
    an upper fence in convergence studies, not as an error model.
    """
    u = iv.width * nu.modulus
    return u * u * (1.0 + u) * math.exp(u) / (n * iv.width)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Max midpoint errors against the limit kernel for a ladder of sizes."""

    ns: tuple[int, ...]
    max_errors: tuple[float, ...]
    bounds: tuple[float, ...]
    fitted_rate: float


def convergence_study(ns: Sequence[int], iv: Interval, nu: ComplexParam) -> ConvergenceStudy:
    """Per-n max error between the product's kernel estimate and the limit kernel.

    Each point of ``sample_points(iv)`` is mapped to its containing cell pair;
    the comparison happens at that cell's midpoints.  Only the sampled columns of the product
    are formed (``apply_product`` on unit columns), and the limit kernel is evaluated at all
    sampled cells of every size in one array call.  The fitted rate is the slope of
    log(error) against log(n); errors that are exactly zero (nu = 0) give a
    fitted rate of 0 by convention.  A non-finite estimate or error raises
    ArithmeticError rather than dropping out of the running maximum.
    """
    ns = tuple(ns)
    if len(ns) < 2:
        raise ValueError(f"a rate needs at least two sizes, got {ns}")
    if any(n < 2 for n in ns):
        raise ValueError(f"sizes must be >= 2, got {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {ns}")
    pts = np.array(sample_points(iv))
    cells, ests = [], []  # per size: the sampled off-diagonal cells (j, k) and their estimates
    for n in ns:
        step = iv.width / n
        jk = np.minimum(((pts - iv.a) / step).astype(int), n - 1)
        jk = jk[jk[:, 0] != jk[:, 1]]
        cols, col = np.unique(jk[:, 1], return_inverse=True)
        units = np.zeros((n, cols.size))
        units[cols, np.arange(cols.size)] = 1.0
        w = apply_product(n, iv, nu, units)
        cells.append(jk)
        # off the diagonal, (W - I)[j, k] = W[j, k]
        ests.append(w[jk[:, 0], col] * (n / iv.width))
    # each point stops at its own degree: one call gives every size's values bit for bit
    xy = np.concatenate([midpoints(n, iv)[jk] for n, jk in zip(ns, cells)])
    exact_all = limit_kernel(xy[:, 0], xy[:, 1], iv, nu)
    ends = np.cumsum([len(jk) for jk in cells])[:-1]
    errors = []
    for n, jk, est, exact in zip(ns, cells, ests, np.split(exact_all, ends)):
        err = np.abs(est - exact)
        if not np.isfinite(err).all():
            i = int(np.isfinite(err).argmin())
            raise ArithmeticError(f"non-finite kernel estimate at n={n}, cell "
                                  f"({jk[i, 0]}, {jk[i, 1]}): {est[i]} vs {exact[i]}")
        errors.append(float(err.max(initial=0.0)))
    bounds = tuple(first_excluded_term_bound(n, iv, nu) for n in ns)
    if all(e > 0 for e in errors):
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        rate = float(-slope)
    else:
        rate = 0.0
    return ConvergenceStudy(ns=ns, max_errors=tuple(errors), bounds=bounds, fitted_rate=rate)
