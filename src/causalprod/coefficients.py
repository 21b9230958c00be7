"""Integer coefficient tables behind the series expansion of the limit kernel.

A path with s = m + n + p + 1 vertices and q upper vertices contributes, per
linear extension of rank (r, r'), one monomial to the degree-s term of the
kernel series.  Forward extensions (first endpoint below last) feed the
strictly-causal part; reversed extensions feed the anticausal part.  The
brute-force counters walk the path/extension model from :mod:`.lattice`; the
closed forms are independent binomial formulas.  Keeping the two code paths
disjoint is the point: each validates the other.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .combinatorics import binomial
from .config import COEFF_TABLE_CAP
from .lattice import enumerate_linear_extensions, enumerate_paths, essential_order


def degree_terms(s: int) -> Iterator[tuple[int, int, int]]:
    """Every (m, n, p) >= 0 of degree m + n + p + 1 = s, by increasing m, then n."""
    for m in range(s):
        for n in range(s - m):
            yield m, n, s - 1 - m - n


def forward_count_closed(m: int, n: int, p: int, q: int) -> int:
    """Closed form for the forward-extension count at rank (m, p), q uppers.

    Piecewise in the sign of 2q - (m+n+p): zero below, C(n, q-m) - C(n, q) at
    equality, C(n, q-1) - C(n, q) above.  Total in q via the zero-convention
    binomial, so out-of-range q simply yields 0.
    """
    if min(m, n, p) < 0:
        raise ValueError(f"m, n, p must be >= 0, got {(m, n, p)}")
    w = m + n + p
    if 2 * q < w:
        return 0
    if 2 * q == w:
        return binomial(n, q - m) - binomial(n, q)
    return binomial(n, q - 1) - binomial(n, q)


def reversed_count_closed(m: int, n: int, p: int, q: int) -> int:
    """Closed form for the reversed-extension count: 1 iff m == p == q and n == 0."""
    if min(m, n, p) < 0:
        raise ValueError(f"m, n, p must be >= 0, got {(m, n, p)}")
    return 1 if (m == p == q and n == 0) else 0


@lru_cache(maxsize=None)
def _rank_census(s: int) -> Counter:
    """(q, rank, forward) -> number of linear extensions over all s-vertex paths."""
    census: Counter = Counter()
    for path in enumerate_paths(s):
        q = path.upper_count
        for ext in enumerate_linear_extensions(essential_order(path)):
            census[(q, ext.rank, ext.forward)] += 1
    return census


def _check_brute_bounds(m: int, n: int, p: int) -> None:
    if min(m, n, p) < 0:
        raise ValueError(f"m, n, p must be >= 0, got {(m, n, p)}")
    if m + n + p + 1 > COEFF_TABLE_CAP:
        raise ValueError(f"degree m+n+p+1={m + n + p + 1} exceeds brute-force cap "
                         f"{COEFF_TABLE_CAP}")


def forward_count_brute(m: int, n: int, p: int, q: int) -> int:
    """Count forward extensions of rank (m, p) over paths with q upper vertices."""
    _check_brute_bounds(m, n, p)
    return _rank_census(m + n + p + 1)[(q, (m, p), True)]


def reversed_count_brute(m: int, n: int, p: int, q: int) -> int:
    """Count reversed extensions of rank (m+n+1, n+p+1) over paths with q uppers."""
    _check_brute_bounds(m, n, p)
    return _rank_census(m + n + p + 1)[(q, (m + n + 1, n + p + 1), False)]


@dataclass(frozen=True)
class SeriesPolynomial:
    """Degree-s slice of the kernel series.

    Each term (m, n, p, q, c) stands for
    c * (-conj(nu))**q * nu**(s-q) * (x-a)^m (y-x)^n (b-y)^p / (m! n! p!),
    with (x, y) swapped when ``dagger`` is set (anticausal slice).  The complex
    prefactor is attached only at evaluation time; the stored data is exact.
    """

    degree: int
    dagger: bool
    terms: tuple[tuple[int, int, int, int, int], ...]

    def coeff_map(self) -> dict[tuple[int, int, int], dict[int, int]]:
        out: dict[tuple[int, int, int], dict[int, int]] = {}
        for m, n, p, q, c in self.terms:
            out.setdefault((m, n, p), {})[q] = c
        return out

    def evaluate(self, x: float, y: float, a: float, b: float, nu: complex) -> complex:
        if self.dagger:
            x, y = y, x
        nubar = nu.conjugate()
        total = 0j
        for m, n, p, q, c in self.terms:
            mono = (x - a) ** m * (y - x) ** n * (b - y) ** p
            mono /= math.factorial(m) * math.factorial(n) * math.factorial(p)
            total += c * (-nubar) ** q * nu ** (self.degree - q) * mono
        return total


def _series(s: int, count: Callable[[int, int, int, int], int], dagger: bool) -> SeriesPolynomial:
    if s < 1:
        raise ValueError(f"need degree s >= 1, got {s}")
    terms = []
    for m, n, p in degree_terms(s):
        for q in range(0, s + 1):
            c = count(m, n, p, q)
            if c != 0:
                terms.append((m, n, p, q, c))
    return SeriesPolynomial(degree=s, dagger=dagger, terms=tuple(terms))


def causal_series(s: int) -> SeriesPolynomial:
    """All nonzero degree-s terms of the causal (x < y) kernel series."""
    return _series(s, forward_count_closed, dagger=False)


def anticausal_series(s: int) -> SeriesPolynomial:
    """All nonzero degree-s terms of the anticausal (y < x) kernel series."""
    return _series(s, reversed_count_closed, dagger=True)


@lru_cache(maxsize=None)
def _cached_series(s: int, dagger: bool) -> SeriesPolynomial:
    return anticausal_series(s) if dagger else causal_series(s)


def truncated_kernel(x: float, y: float, a: float, b: float, nu: complex,
                     s_max: int) -> complex:
    """Kernel value rebuilt from the coefficient tables, summed over degrees <= s_max.

    Independent of the closed Bessel form: this is the polynomial route, and
    its agreement with the closed form is one of the main cross-checks.
    """
    if x == y:
        return 0j
    total = 0j
    for s in range(1, s_max + 1):
        total += _cached_series(s, y < x).evaluate(x, y, a, b, nu)
    return total


class CountTable:
    """Forward counts count(m, n, p, q) for m + n + p <= w_max, q in [q_lo, q_hi].

    Built once from a pure ``count`` function, in exact integers; each
    (m, n, p) row keeps its nonzero (q, count) pairs in increasing q.
    """

    def __init__(self, count: Callable[[int, int, int, int], int],
                 w_max: int, q_lo: int, q_hi: int) -> None:
        self.w_max, self.q_lo, self.q_hi = w_max, q_lo, q_hi
        self._rows: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}
        for m in range(w_max + 1):
            for n in range(w_max + 1 - m):
                for p in range(w_max + 1 - m - n):
                    vals = ((q, count(m, n, p, q)) for q in range(q_lo, q_hi + 1))
                    self._rows[m, n, p] = tuple((q, c) for q, c in vals if c)

    @classmethod
    def for_identity(cls, w_max: int, xi_max: int,
                     count: Callable[[int, int, int, int], int] | None = None) -> "CountTable":
        """Table for every identity residual with alpha+beta+gamma <= w_max, xi <= xi_max.

        For alpha + beta + gamma = w and 0 <= xi <= X, every row the identity
        reads has weight <= w, and its q-indices are:

        - ``count(alpha, beta, gamma, xi)``: q = xi, in [0, X];
        - the triple sum: q = xi - gamma + p - 1 with 0 <= p <= gamma, in
          [-w - 1, X - 1];
        - the left factor: q = t1, in [0, X];
        - the right factor: q = w_R + 1 - (xi - t1) with row weight w_R in
          [0, w - 1] and 0 <= t1 <= xi, in [1 - X, w].

        Hence the window [min(-w - 1, 1 - X), max(X, w)]; for verify's
        X = w + 2 that is [-(w + 1), w + 2].
        """
        q_lo, q_hi = min(-w_max - 1, 1 - xi_max), max(xi_max, w_max)
        return cls(count or forward_count_closed, w_max, q_lo, q_hi)

    def row(self, m: int, n: int, p: int, lo: int, hi: int) -> tuple[tuple[int, int], ...]:
        """Nonzero (q, count) pairs of row (m, n, p), complete for q in [lo, hi].

        The row may hold pairs outside [lo, hi]; callers filter.  Raises
        IndexError when the table lacks the row or its window misses part of
        [lo, hi], so an entry that was never evaluated cannot read as zero.
        """
        if lo < self.q_lo or hi > self.q_hi or m + n + p > self.w_max:
            raise IndexError(f"count({m}, {n}, {p}, q) for q in [{lo}, {hi}] is outside the "
                             f"table (weight <= {self.w_max}, q in [{self.q_lo}, {self.q_hi}])")
        return self._rows[m, n, p]


@lru_cache(maxsize=None)
def _closed_table(w: int, xi_max: int) -> CountTable:
    return CountTable.for_identity(w, xi_max)


def unitarity_identity_residuals(
    alpha: int,
    beta: int,
    gamma: int,
    xi_max: int,
    table: CountTable | None = None,
) -> list[int]:
    """Residuals of the unitarity coefficient identity for xi = 0..xi_max.

    ``table`` is a :class:`CountTable` covering the triple (see
    :meth:`CountTable.for_identity`), or None for the closed forms.  The five
    outer loops and their binomial weights do not depend on xi, so they run
    once for all xi: each nonzero left factor at t1 feeds every xi >= t1.
    """
    if min(alpha, beta, gamma) < 0 or xi_max < 0:
        raise ValueError("indices must be >= 0")
    if table is None:
        table = _closed_table(alpha + beta + gamma, xi_max)
    X = xi_max
    out = [0] * (X + 1)
    comb = math.comb

    for q, c in table.row(alpha, beta, gamma, 0, X):
        if 0 <= q <= X:
            out[q] += c
    if beta == 0 and alpha == gamma and alpha + 1 <= X:
        out[alpha + 1] -= 1
    if alpha == beta + gamma + 1 and alpha <= X:
        out[alpha] -= comb(alpha + gamma - 1, gamma)

    for m in range(alpha + 1):
        cm = comb(alpha, m)
        for p in range(gamma - alpha + m + 1):
            cmp = cm * comb(gamma, p)
            shift = gamma - p + 1  # xi = q + shift
            for n in range(alpha + beta - gamma - m + p):
                c = cmp * comb(gamma - alpha + m + n - p, n)
                for q, v in table.row(m, n, alpha + beta - gamma - m - n + 2 * p - 1,
                                      -shift, X - shift):
                    if 0 <= q + shift <= X:
                        out[q + shift] -= c * v

    for m1 in range(alpha + 1):
        ca = comb(alpha, m1)
        for m2 in range(beta + 1):
            cb = ca * comb(beta, m2)
            k_base = alpha + gamma - m1 + m2
            for n1 in range(gamma):
                for n2 in range(gamma - n1):
                    cn = cb * comb(n1 + n2, n1)
                    for p1 in range(gamma - n1 - n2):
                        left = table.row(m1, n1 + beta - m2, p1, 0, X)
                        if not left:
                            continue
                        # the right factor's q is k - (xi - t1), and (-1)**k is the sign
                        k = k_base - n1 - p1
                        cp = (-1 if k % 2 else 1) * cn * comb(gamma - 1 - n1 - n2, p1)
                        right = table.row(m2 + alpha - m1, n2, gamma - 1 - n1 - n2 - p1, k - X, k)
                        for t1, lv in left:
                            if not 0 <= t1 <= X:
                                continue
                            cl = cp * lv
                            for r, rv in right:
                                xi = k + t1 - r
                                if t1 <= xi <= X:
                                    out[xi] += cl * rv
    return out


def unitarity_identity_residual(
    alpha: int,
    beta: int,
    gamma: int,
    xi: int,
    forward_count: Callable[[int, int, int, int], int] | None = None,
) -> int:
    """Exact evaluation of the coefficient identity implied by unitarity.

    The identity pins, for every monomial index (alpha, beta, gamma) and every
    power index xi, a multi-sum of forward counts and binomials that must
    vanish.  Empty ranges (negative upper bounds) contribute nothing.  The
    ``forward_count`` hook exists so verification runs can inject a corrupted
    table as a negative control.  It must be a pure function: it is
    tabulated once, on a superset of the indices the multi-sum reads.
    """
    if xi < 0:
        raise ValueError("indices must be >= 0")
    table = (None if forward_count is None
             else CountTable.for_identity(alpha + beta + gamma, xi, forward_count))
    return unitarity_identity_residuals(alpha, beta, gamma, xi, table)[xi]
