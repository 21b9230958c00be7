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

from .combinatorics import pascal
from .config import COEFF_TABLE_CAP
from .lattice import _refinements, enumerate_paths, essential_order


def degree_terms(s: int) -> Iterator[tuple[int, int, int]]:
    """Every (m, n, p) >= 0 of degree m + n + p + 1 = s, by increasing m, then n."""
    for m in range(s):
        for n in range(s - m):
            yield m, n, s - 1 - m - n


def _check_nonnegative(m: np.ndarray, n: np.ndarray, p: np.ndarray) -> None:
    low = np.minimum(np.minimum(m, n), p) < 0
    if low.any():
        i = low.argmax()
        first = tuple(a.flat[i].item() for a in np.broadcast_arrays(m, n, p))
        raise ValueError(f"m, n, p must be >= 0, got {first}")


def forward_count_closed(m, n, p, q):
    """Closed form for the forward-extension count at rank (m, p), q uppers.

    Piecewise in the sign of 2q - (m+n+p): zero below, C(n, q-m) - C(n, q) at
    equality, C(n, q-1) - C(n, q) above.  Total in q via the zero-convention
    binomial, so out-of-range q simply yields 0.  Broadcasts over int arrays
    and reads the int64 Pascal table; int arguments give an int.
    """
    m, n, p, q = map(np.asarray, (m, n, p, q))
    _check_nonnegative(m, n, p)
    w = m + n + p
    out = np.where(2 * q < w, 0, pascal(n, np.where(2 * q == w, q - m, q - 1)) - pascal(n, q))
    return out if out.ndim else out.item()


def reversed_count_closed(m, n, p, q):
    """Closed form for the reversed-extension count: 1 iff m == p == q and n == 0.

    Broadcasts over int arrays; int arguments give an int.
    """
    m, n, p, q = map(np.asarray, (m, n, p, q))
    _check_nonnegative(m, n, p)
    out = ((m == p) & (p == q) & (n == 0)).astype(np.int64)
    return out if out.ndim else out.item()


@lru_cache(maxsize=None)
def _rank_census(s: int) -> Counter:
    """(q, rank, forward) -> number of linear extensions over all s-vertex paths."""
    census: Counter = Counter()
    for path in enumerate_paths(s):
        q, order = path.upper_count, essential_order(path)
        for seq in _refinements(order, ties=False):
            r, last = seq.index(order.first), seq.index(order.last)
            census[(q, (r, s - last), r < last)] += 1
    return census


def _brute_count(m, n, p, q, key: Callable[[int, int, int, int], tuple]):
    """The census entry key(m, n, p, q) of degree m + n + p + 1, looked up per index."""
    m, n, p, q = np.broadcast_arrays(*map(np.asarray, (m, n, p, q)))
    _check_nonnegative(m, n, p)
    if (m + n + p + 1).max(initial=0) > COEFF_TABLE_CAP:
        raise ValueError(f"degree m+n+p+1={(m + n + p + 1).max()} exceeds brute-force cap "
                         f"{COEFF_TABLE_CAP}")
    out = np.array([_rank_census(i + j + k + 1)[key(i, j, k, t)]
                    for i, j, k, t in zip(*(a.ravel().tolist() for a in (m, n, p, q)))],
                   dtype=np.int64).reshape(m.shape)
    return out if out.ndim else out.item()


def forward_count_brute(m, n, p, q):
    """Count forward extensions of rank (m, p) over paths with q upper vertices.

    Broadcasts over int arrays; int arguments give an int.
    """
    return _brute_count(m, n, p, q, lambda m, n, p, q: (q, (m, p), True))


def reversed_count_brute(m, n, p, q):
    """Count reversed extensions of rank (m+n+1, n+p+1) over paths with q uppers.

    Broadcasts over int arrays; int arguments give an int.
    """
    return _brute_count(m, n, p, q, lambda m, n, p, q: (q, (m + n + 1, n + p + 1), False))


@dataclass(frozen=True)
class SeriesPolynomial:
    """Degree-s slice of the kernel series.

    Each term (m, n, p, q, c) stands for
    c * (-conj(nu))**q * nu**(s-q) * x^m (y-x)^n (1-y)^p / (m! n! p!) on [0, 1),
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

    def evaluate(self, x: float, y: float, nu: complex) -> complex:
        """The slice's value at (x, y) in [0, 1)^2, the scale-free interval."""
        if self.dagger:
            x, y = y, x
        nubar = nu.conjugate()
        total = 0j
        for m, n, p, q, c in self.terms:
            mono = x**m * (y - x) ** n * (1.0 - y) ** p
            mono /= math.factorial(m) * math.factorial(n) * math.factorial(p)
            total += c * (-nubar) ** q * nu ** (self.degree - q) * mono
        return total


def _series(s: int, count: Callable, dagger: bool) -> SeriesPolynomial:
    if s < 1:
        raise ValueError(f"need degree s >= 1, got {s}")
    keys = np.array(list(degree_terms(s)))
    table = count(keys[:, :1], keys[:, 1:2], keys[:, 2:], np.arange(s + 1)).tolist()
    terms = tuple((m, n, p, q, c) for (m, n, p), row in zip(keys.tolist(), table)
                  for q, c in enumerate(row) if c != 0)
    return SeriesPolynomial(degree=s, dagger=dagger, terms=terms)


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
    Slices are summed on [0, 1) at nu (b - a), then divided by b - a: scale-free.
    """
    if x == y:
        return 0j
    width = b - a
    u, v, nu_w = (x - a) / width, (y - a) / width, nu * width
    total = 0j
    for s in range(1, s_max + 1):
        total += _cached_series(s, y < x).evaluate(u, v, nu_w)
    return total / width


# every partial sum of the identity pass is bounded in float64 first; below this bound int64 is exact
_EXACT_BOUND = 2.0 ** 62
# terms of the triple sum (counted by an upper bound) or of the 5-fold sum per step of the
# identity pass; a step's arrays then stay near 1 MB however many triples the pass covers
_CHUNK = 1 << 12


def _identity_table(count: Callable, w: int, xi_max: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
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
    that is [-(w + 1), w + 2].  ``count`` is called once, on the whole
    window: m, n and p as (R, 1) columns against q as a (1, Q) row.  Returns
    (keys, tab, row, q_lo): keys is the (R, 3) int64 (m, n, p) of every
    weight <= w, ordered by weight, then m, then n; the int64 table has one
    row per key, so ``tab[row[m, n, p], q - q_lo] = count(m, n, p, q)``, and
    ``row`` is -1 off the table.  A count that does not fit in int64 (say a
    Python int in an object array) raises ArithmeticError.
    """
    q_lo, q_hi = min(-w - 1, 1 - xi_max), max(xi_max, w)
    keys = np.array([t for c in range(w + 1) for t in degree_terms(c + 1)], dtype=np.int64)
    tab = np.asarray(count(*keys.T[:, :, None], np.arange(q_lo, q_hi + 1)))
    if tab.dtype != np.int64 and (huge := np.abs(tab) >= 2 ** 63).any():
        i, j = np.argwhere(huge)[0]
        raise ArithmeticError(f"count{(*keys[i].tolist(), q_lo + j)} does not fit in int64")
    tab = np.broadcast_to(tab, (len(keys), q_hi - q_lo + 1)).astype(np.int64)
    row = np.full((w + 1,) * 3, -1)
    row[tuple(keys.T)] = np.arange(len(keys))
    return keys, tab, row, q_lo


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


def _chunks(work: np.ndarray) -> Iterator[tuple[int, int]]:
    """(lo, hi) runs of consecutive items whose work adds up to about _CHUNK per run."""
    chunk = (np.cumsum(work) - work) // _CHUNK
    cuts = np.flatnonzero(np.diff(chunk, prepend=-1))
    return zip(cuts, [*cuts[1:], len(work)])


def _add_terms(out: np.ndarray, bound: np.ndarray, owner: np.ndarray, coef: np.ndarray,
               values: np.ndarray, vmax: np.ndarray) -> None:
    """out[owner] += coef * values, summed per owner once each owner's running bound is checked.

    ``owner`` is sorted, vmax[i] >= max|values[i]| in float64, and bound[o]
    bounds every partial sum of out[o] so far.
    """
    owners, b = _segment_sums(owner, np.abs(coef) * vmax)
    bound[owners] += b
    _check_bound(bound[owners], "an identity residual")
    owners, s = _segment_sums(owner, coef[:, None] * values)
    out[owners] += s


def _pairs(tab: np.ndarray, weight: np.ndarray, q_lo: int,
           xi_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 5-fold sum's read windows and every (left row, right row) pair it reads.

    Both factors are rows of ``tab`` (see :func:`_identity_table`) of weight
    below w, the top of the sorted ``weight`` of its rows.  Left row l is read
    at q = t1 in [0, xi_max] and right row r, of weight w_R, at q = w_R + 1 - j
    for j in [0, xi_max], so lvec[l, t] is its count at q = t and rvec[r, j] at
    q = w_R + 1 - j.  The pairs are every left row and right row of weights
    adding up to at most w - 1 whose windows are not all zero, by left row,
    then right row.  Returns (lvec, rvec, li, ri), li and ri as rows of tab.
    """
    span, w = np.arange(xi_max + 1), weight[-1]
    head = tab[:np.searchsorted(weight, w)]
    lvec = head[:, -q_lo:xi_max + 1 - q_lo]
    rvec = np.take_along_axis(head, (weight[:len(head)] + 1 - q_lo)[:, None] - span, axis=1)
    lrows, rrows = np.flatnonzero(lvec.any(axis=1)), np.flatnonzero(rvec.any(axis=1))
    partners = np.searchsorted(weight[rrows], w - 1 - weight[lrows], side="right")
    li, r = _spread(lrows[None], partners)
    return lvec, rvec, li, rrows[r]


def unitarity_identity_residuals(w: int, xi_max: int,
                                 count: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the unitarity coefficient identity, exact, at every weight <= w.

    Returns (triples, residuals): the (R, 3) int64 (alpha, beta, gamma) of
    every alpha + beta + gamma <= w, by weight, then alpha, then beta, the
    order of the table's rows (see :func:`_identity_table`), and the
    (R, xi_max + 1) int64 residuals of each for xi = 0..xi_max and the forward
    counts ``count``, which broadcasts like :func:`forward_count_closed` and is
    called once per call, on every index the identity reads.  The triple sum
    is enumerated per triple; the 5-fold sum per (left row, right row) pair
    of nonzero read windows (see :func:`_pairs`), which with m2 and n1 fixes
    one term of one triple.  Both are expanded in fixed-size chunks by repeat
    expansions, and each chunk's terms are added per triple as one segment.
    Every partial sum is bounded in float64 first; a bound of 2**62 or more
    raises ArithmeticError rather than let int64 wrap.
    """
    if w < 0 or xi_max < 0:
        raise ValueError("indices must be >= 0")
    X = xi_max
    triples, tab, row, q_lo = _identity_table(count, w, X)
    alpha, beta, gamma = keys = triples.T
    span = np.arange(X + 1)
    comb = pascal(*np.ogrid[:w + 1, :w + 1])
    rowmax = np.abs(tab.astype(float)).max(axis=1)

    # count(alpha, beta, gamma, xi) and the two delta terms
    out = tab[:, -q_lo:X + 1 - q_lo].copy()
    first = (beta == 0) & (alpha == gamma) & (alpha + 1 <= X)
    second = (alpha == beta + gamma + 1) & (alpha <= X)
    second_c = comb[np.maximum(alpha + gamma - 1, 0), gamma]
    bound = np.abs(out.astype(float)).max(axis=1, initial=0.0) + 1.0 + second_c * second
    _check_bound(bound, "an identity residual")

    # triple sum: -C(alpha,m) C(gamma-alpha+m+n-p, n) C(gamma,p) count(m, n, .., xi-gamma+p-1),
    # at most (alpha + 1) (gamma + 1) beta terms per triple
    for lo, hi in _chunks((alpha + 1) * (gamma + 1) * beta):
        s3 = _spread(np.vstack([np.arange(lo, hi), keys[:, lo:hi]]), alpha[lo:hi] + 1)  # m
        s3 = _spread(s3, s3[3] - s3[1] + s3[4] + 1)                  # p
        s3 = _spread(s3, s3[1] + s3[2] - s3[3] - s3[4] + s3[5])      # n
        i3, a3, b3, g3, m, p, n = s3
        row3 = row[m, n, a3 + b3 - g3 - m - n + 2 * p - 1]
        c3 = comb[a3, m] * comb[g3 - a3 + m + n - p, n] * comb[g3, p]
        _add_terms(out, bound, i3, -c3, tab[row3[:, None], (p - g3 - 1 - q_lo)[:, None] + span],
                   rowmax[row3])

    # 5-fold sum: left row (m1, nl, p1), right row (mr, n2, pr), m2 <= mr and n1 <= nl are the
    # term of (alpha, beta, gamma) = (m1 + mr - m2, nl + m2 - n1, n1 + n2 + p1 + pr + 1), with
    # (-1)^(w_R+1) C(alpha,m1) C(beta,m2) C(n1+n2,n1) C(p1+pr,p1) times the pair's q-correlation
    # P[xi] = sum_{t1 = 0..xi} L[t1] R[w_R + 1 - xi + t1]
    lvec, rvec, li, ri = _pairs(tab, alpha + beta + gamma, q_lo, X)
    for lo, hi in _chunks((keys[0, ri] + 1) * (keys[1, li] + 1)):
        lv, rv = lvec[li[lo:hi]], rvec[ri[lo:hi]]
        _check_bound(np.abs(lv.astype(float)).sum(axis=1) * np.abs(rv.astype(float)).max(axis=1),
                     "a q-correlation of the 5-fold sum")
        corr = np.zeros_like(lv)
        for t1 in np.flatnonzero(lv.any(axis=0)):
            corr[:, t1:] += lv[:, t1, None] * rv[:, :X + 1 - t1]
        s5 = np.vstack([np.arange(hi - lo), keys[:, li[lo:hi]], keys[:, ri[lo:hi]]])
        s5 = _spread(s5, s5[4] + 1)                                  # m2
        k, m1, nl, p1, mr, n2, pr, m2, n1 = _spread(s5, s5[2] + 1)   # n1
        a5, b5 = m1 + mr - m2, nl + m2 - n1
        c5 = (1 - 2 * ((mr + n2 + pr + 1) % 2)) * comb[a5, m1] * comb[b5, m2] \
            * comb[n1 + n2, n1] * comb[p1 + pr, p1]
        i5 = row[a5, b5, n1 + n2 + p1 + pr + 1]
        order = np.argsort(i5)
        k = k[order]
        _add_terms(out, bound, i5[order], c5[order], corr[k],
                   np.abs(corr).max(axis=1).astype(float)[k])

    out[first, np.minimum(alpha + 1, X)[first]] -= 1
    out[second, np.minimum(alpha, X)[second]] -= second_c[second]
    return triples, out


def unitarity_identity_residual(
    alpha: int,
    beta: int,
    gamma: int,
    xi: int,
    forward_count: Callable | None = None,
) -> int:
    """Exact evaluation of the coefficient identity implied by unitarity.

    The identity pins, for every monomial index (alpha, beta, gamma) and every
    power index xi, a multi-sum of forward counts and binomials that must
    vanish.  Empty ranges (negative upper bounds) contribute nothing.  The
    ``forward_count`` hook, :func:`forward_count_closed` when None, exists so
    tests can inject a corrupted table as a negative control; like it, the
    hook broadcasts over int arrays.  This runs the pass of
    :func:`unitarity_identity_residuals` at weight alpha + beta + gamma, so it
    evaluates every triple up to that weight and returns one entry.
    """
    if min(alpha, beta, gamma, xi) < 0:
        raise ValueError("indices must be >= 0")
    triples, res = unitarity_identity_residuals(alpha + beta + gamma, xi,
                                                forward_count or forward_count_closed)
    return int(res[(triples == (alpha, beta, gamma)).all(axis=1), xi][0])
