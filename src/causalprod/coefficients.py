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

import numpy as np

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


# every partial sum of the identity pass is bounded in float64 first; below this bound int64 is exact
_EXACT_BOUND = 2.0 ** 62
# 5-fold index tuples per step of the identity pass, counted before zero rows are dropped;
# a step's arrays then stay near 1 MB however many triples the pass covers
_CHUNK = 1 << 12


def _identity_table(count: Callable[[int, int, int, int], int], w: int,
                    xi_max: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Every count(m, n, p, q) the identity reads at weight <= w and xi <= xi_max.

    For alpha + beta + gamma <= w and 0 <= xi <= X = xi_max, every row the
    identity reads has weight <= w, and its q-indices are:

    - ``count(alpha, beta, gamma, xi)``: q = xi, in [0, X];
    - the triple sum: q = xi - gamma + p - 1 with 0 <= p <= gamma, in
      [-w - 1, X - 1];
    - the left factor: q = t1, in [0, X];
    - the right factor: q = w_R + 1 - (xi - t1) with row weight w_R in
      [0, w - 1] and 0 <= t1 <= xi, in [1 - X, w].

    Hence the window [min(-w - 1, 1 - X), max(X, w)]; for verify's X = w + 2
    that is [-(w + 1), w + 2].  ``count`` is called once on every index of
    the window.  Returns (tab, row, q_lo): the int64 table has one row per
    (m, n, p) of weight <= w, ordered by weight, then m, then n, so
    ``tab[row[m, n, p], q - q_lo] = count(m, n, p, q)``, and ``row`` is -1 off
    the table.  A count that does not fit in int64 raises ArithmeticError.
    """
    q_lo, q_hi = min(-w - 1, 1 - xi_max), max(xi_max, w)
    keys = [(m, n, c - m - n) for c in range(w + 1) for m in range(c + 1) for n in range(c + 1 - m)]
    tab = np.zeros((len(keys), q_hi - q_lo + 1), dtype=np.int64)
    row = np.full((w + 1,) * 3, -1)
    for i, (m, n, p) in enumerate(keys):
        vals = [count(m, n, p, q) for q in range(q_lo, q_hi + 1)]
        if max(map(abs, vals)) >= 2 ** 63:
            raise ArithmeticError(f"count({m}, {n}, {p}, q) does not fit in int64")
        tab[i], row[m, n, p] = vals, i
    return tab, row, q_lo


def identity_triples(w_max: int) -> np.ndarray:
    """Every (alpha, beta, gamma) >= 0 with alpha + beta + gamma <= w_max, one per row, in order."""
    return np.array([(alpha, beta, gamma) for alpha in range(w_max + 1)
                     for beta in range(w_max + 1 - alpha)
                     for gamma in range(w_max + 1 - alpha - beta)], dtype=np.int64).reshape(-1, 3)


def _spread(state: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Column j of state repeated counts[j] times, under a new last row 0..counts[j]-1."""
    counts = np.maximum(counts, 0)
    starts = np.cumsum(counts) - counts
    local = np.arange(counts.sum()) - np.repeat(starts, counts)
    return np.vstack([np.repeat(state, counts, axis=1), local])


def _check_bound(bound, what: str) -> None:
    if np.max(bound, initial=0.0) >= _EXACT_BOUND:
        raise ArithmeticError(f"{what} may reach 2**62; int64 would not stay exact")


def _segment_sums(owner: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct owners of a sorted owner array and the sum of values over each one's run."""
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    return owner[starts], np.add.reduceat(values, starts, axis=0)


def _pair_table(tab: np.ndarray, row: np.ndarray, q_lo: int,
                xi_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The q-correlation of every (left row, right row) pair of total weight below w.

    The 5-fold sum pairs the left row (m1, n1 + beta - m2, p1) with the right
    row (m2 + alpha - m1, n2, p2), where n1 + n2 + p1 + p2 = gamma - 1.  So
    its k = alpha + gamma - m1 + m2 - n1 - p1 is w_R + 1 for the right row's
    weight w_R, and the pair alone fixes

        P[xi] = sum_{t1 = 0..xi} L[t1] * R[w_R + 1 - xi + t1],   xi = 0..xi_max.

    Both factors are rows of weight <= w - 1, the rows of ``tab`` (see
    :func:`_identity_table`) before the last weight.  Rows whose read window
    is all zero are left out.  The pairs of each left row are all nonzero
    right rows of weight <= w - 1 - w_L, a prefix of the right rows in order
    of weight, so pair (l, r) sits at ``offset[l] + r`` with
    ``l = left[row[m, n, p]]`` and ``r = right[row[m, n, p]]`` (-1 for a zero
    row).  Returns (P, offset, left, right) with P of shape (pairs, xi_max + 1).
    """
    span, w = np.arange(xi_max + 1), len(row) - 1
    weight = np.sort(np.indices(row.shape).sum(axis=0)[row >= 0])  # of each row of tab, in order
    weight = weight[weight < w]
    head = tab[:weight.size]
    lvec = head[:, -q_lo:xi_max + 1 - q_lo]
    rvec = np.take_along_axis(head, (weight + 1 - q_lo)[:, None] - span, axis=1)  # R[w_R + 1 - j] at j
    lnz, rnz = lvec.any(axis=1), rvec.any(axis=1)
    lvec, lw = lvec[lnz], weight[lnz]
    rvec, rw = rvec[rnz], weight[rnz]
    left = np.full(len(tab), -1)
    left[np.flatnonzero(lnz)] = np.arange(lw.size)
    right = np.full(len(tab), -1)
    right[np.flatnonzero(rnz)] = np.arange(rw.size)
    prefix = np.searchsorted(rw, w - 1 - lw, side="right")
    offset = np.cumsum(prefix) - prefix
    pairs = np.zeros((prefix.sum(), xi_max + 1), dtype=np.int64)
    rmax = np.abs(rvec.astype(float)).max(axis=1, initial=0.0)
    for wl in range(w):
        lo, hi = np.searchsorted(lw, (wl, wl + 1))
        nr = prefix[lo] if hi > lo else 0
        if nr == 0:
            continue
        lv, rv = lvec[lo:hi], rvec[:nr]
        _check_bound(np.abs(lv.astype(float)).sum(axis=1).max() * rmax[:nr].max(),
                     f"a q-correlation of weight-{wl} left rows")
        block = pairs[offset[lo]:offset[lo] + (hi - lo) * nr].reshape(hi - lo, nr, xi_max + 1)
        for t1 in np.flatnonzero(lv.any(axis=0)):
            block[:, :, t1:] += lv[:, t1, None, None] * rv[None, :, :xi_max + 1 - t1]
    return pairs, offset, left, right


def unitarity_identity_residuals(triples, xi_max: int,
                                 count: Callable[[int, int, int, int], int]) -> np.ndarray:
    """Residuals of the unitarity coefficient identity, exact, for xi = 0..xi_max.

    Row i holds the residuals of triples[i] = (alpha, beta, gamma) for the
    forward counts ``count``, tabulated once per call on every index the
    identity reads (see :func:`_identity_table`).  One pass serves every
    triple: the q-correlations of the 5-fold sum are formed once per (left
    row, right row) pair (see :func:`_pair_table`), the index tuples of both
    multi-sums are enumerated in fixed-size chunks of triples by repeat
    expansions, tuples whose left or right row is zero are dropped, and each
    triple's terms are added as one segment.  Every partial sum is bounded in
    float64 first; a bound of 2**62 or more raises ArithmeticError rather
    than let int64 wrap.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if xi_max < 0 or (triples < 0).any():
        raise ValueError("indices must be >= 0")
    alpha, beta, gamma = triples.T
    w, X = int(triples.sum(axis=1).max(initial=0)), xi_max
    tab, row, q_lo = _identity_table(count, w, X)
    span = np.arange(X + 1)
    comb = np.array([[math.comb(n, k) for k in range(w + 1)] for n in range(w + 1)], dtype=np.int64)
    rowmax = np.abs(tab.astype(float)).max(axis=1)
    pairs, offset, left, right = _pair_table(tab, row, q_lo, X)
    pmax = np.abs(pairs).max(axis=1, initial=0).astype(float)

    # count(alpha, beta, gamma, xi) and the two delta terms
    out = tab[row[alpha, beta, gamma], -q_lo:X + 1 - q_lo]
    first = (beta == 0) & (alpha == gamma) & (alpha + 1 <= X)
    second = (alpha == beta + gamma + 1) & (alpha <= X)
    second_c = comb[np.maximum(alpha + gamma - 1, 0), gamma]
    bound = np.abs(out.astype(float)).max(axis=1, initial=0.0) + 1.0 + second_c * second

    work = (alpha + 1) * (beta + 1) * gamma * (gamma + 1) * (gamma + 2) // 6
    chunk = (np.cumsum(work) - work) // _CHUNK
    cuts = np.flatnonzero(np.diff(chunk, prepend=-1))
    for lo, hi in zip(cuts, [*cuts[1:], len(triples)]):
        st = np.vstack([np.arange(lo, hi), alpha[lo:hi], beta[lo:hi], gamma[lo:hi]])

        # triple sum: -C(alpha,m) C(gamma-alpha+m+n-p, n) C(gamma,p) count(m, n, .., xi-gamma+p-1)
        s3 = _spread(st, st[1] + 1)                                  # m
        s3 = _spread(s3, s3[3] - s3[1] + s3[4] + 1)                  # p
        s3 = _spread(s3, s3[1] + s3[2] - s3[3] - s3[4] + s3[5])      # n
        i3, a3, b3, g3, m, p, n = s3
        row3 = row[m, n, a3 + b3 - g3 - m - n + 2 * p - 1]
        c3 = comb[a3, m] * comb[g3 - a3 + m + n - p, n] * comb[g3, p]

        # 5-fold sum, left row (m1, n1 + beta - m2, p1) first, then n2 and the right row
        s5 = _spread(st, st[1] + 1)                                  # m1
        s5 = _spread(s5, s5[2] + 1)                                  # m2
        s5 = _spread(s5, s5[3])                                      # n1
        s5 = _spread(s5, s5[3] - s5[6])                              # p1
        _, _, b5, _, m1, m2, n1, p1 = s5
        lrow = left[row[m1, n1 + b5 - m2, p1]]
        i5, a5, b5, g5, m1, m2, n1, p1 = s5[:, lrow >= 0]
        lrow = lrow[lrow >= 0]
        d, e = a5 - m1 + m2, g5 - 1 - n1 - p1  # right row (d, n2, e - n2) has weight d + e
        sign = 1 - 2 * ((d + e + 1) % 2)
        s5 = _spread(np.vstack([i5, sign * comb[a5, m1] * comb[b5, m2], offset[lrow],
                                d, e, n1, p1]), e + 1)               # n2
        i5, c5, base, d, e, n1, p1, n2 = s5
        rrow = right[row[d, n2, e - n2]]
        keep = rrow >= 0
        i5, n1, n2, p1, e = i5[keep], n1[keep], n2[keep], p1[keep], e[keep]
        c5 = c5[keep] * comb[n1 + n2, n1] * comb[e + p1 - n2, p1]
        pair = base[keep] + rrow[keep]

        for owner, b in (_segment_sums(i3, np.abs(c3) * rowmax[row3]),
                         _segment_sums(i5, np.abs(c5) * pmax[pair])):
            bound[owner] += b
        _check_bound(bound[lo:hi], "an identity residual")
        owner, s = _segment_sums(
            i3, c3[:, None] * tab[row3[:, None], (p - g3 - 1 - q_lo)[:, None] + span])
        out[owner] -= s
        owner, s = _segment_sums(i5, c5[:, None] * pairs[pair])
        out[owner] += s

    out[first, np.minimum(alpha + 1, X)[first]] -= 1
    out[second, np.minimum(alpha, X)[second]] -= second_c[second]
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
    ``forward_count`` hook, :func:`forward_count_closed` when None, exists so
    tests can inject a corrupted table as a negative control; this is a
    one-triple call of :func:`unitarity_identity_residuals`.
    """
    count = forward_count or forward_count_closed
    return int(unitarity_identity_residuals([(alpha, beta, gamma)], xi, count)[0, xi])
