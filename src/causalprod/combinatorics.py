"""Exact integer combinatorics: binomials, generalized Catalan numbers, Dyck paths.

No floats anywhere.  ``binomial`` is arbitrary-precision Python arithmetic and
follows the zero convention: C(m, n) = 0 unless 0 <= n <= m, which makes
every downstream formula total.  The closed forms built on it (here and in
:mod:`.coefficients`) take int arrays as well as ints and broadcast over
them: they read :func:`pascal`, one int64 Pascal table of rows 0..66 that is
filled once, on first use, from ``binomial``.  Row 66 is the last whose every
entry fits in int64 (C(66, 33) < 2**63 <= C(67, 33)), so a row past it is
refused rather than wrapped.  Int arguments give a Python int or bool.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DYCK_STEPS = 64
# the last row of the int64 Pascal table: C(66, 33) < 2**63 <= C(67, 33)
PASCAL_TOP = 66
# catalan_recurrence_holds adds at most (m + p) // 2 + 1 <= 31 terms, each at most
# C(m + n + p, p) <= C(61, 30), so for m + n + p <= 61 every partial sum stays below 2**63
CATALAN_RECURRENCE_TOP = 61


def binomial(m: int, n: int) -> int:
    """C(m, n) with the zero convention: 0 unless 0 <= n <= m."""
    return math.comb(m, n) if 0 <= n <= m else 0


@lru_cache(maxsize=None)
def _pascal_table() -> np.ndarray:
    """C(n, k) at [n + 1, k + 1] for 0 <= n, k <= PASCAL_TOP, in int64 within a zero border.

    Row 0, column 0 and the last column hold the zero-convention values of n < 0,
    k < 0 and k > PASCAL_TOP.  Entries with k <= n / 2 come from binomial; the
    rest mirror them.
    """
    n, k = np.tril_indices(PASCAL_TOP + 1)
    n, k = n[2 * k <= n], k[2 * k <= n]
    tab = np.zeros((PASCAL_TOP + 2, PASCAL_TOP + 3), dtype=np.int64)
    vals = [binomial(a, b) for a, b in zip(n.tolist(), k.tolist())]
    tab[n + 1, k + 1] = tab[n + 1, n - k + 1] = vals
    tab.flags.writeable = False  # one table for every caller of the process
    return tab


def pascal(n, k) -> np.ndarray:
    """C(n, k) with the zero convention, broadcast over int arrays, as an int64 array.

    Reads the int64 Pascal table; a row n past PASCAL_TOP raises OverflowError.
    """
    n, k = np.asarray(n), np.asarray(k)
    if n.max(initial=0) > PASCAL_TOP:
        raise OverflowError(f"C(n, k) for n = {n.max()} > {PASCAL_TOP} does not fit in int64")
    tab = _pascal_table()
    # n < 0, k < 0 and k > PASCAL_TOP are clipped onto the zero border
    return tab.ravel()[np.maximum(n + 1, 0) * tab.shape[1] + np.clip(k + 1, 0, PASCAL_TOP + 2)]


def catalan_general(m, n, p):
    """Doubly generalized Catalan number C(m+n, m) - C(m+n, m+p+1), broadcast over int arrays.

    Total for arbitrary integer arguments via the zero-convention binomial.
    For m, n, p >= 0 with m - n >= -p - 1 this counts walks with m up-steps
    and n down-steps from 0 that never go below -p (reflection principle).
    Int arguments give an int; m + n past PASCAL_TOP raises OverflowError.
    """
    m, n = np.asarray(m), np.asarray(n)
    out = pascal(m + n, m) - pascal(m + n, m + p + 1)
    return out if out.ndim else out.item()


def fibonacci(n: int) -> int:
    """n-th Fibonacci number with fibonacci(1) == fibonacci(2) == 1."""
    if n < 1:
        raise ValueError(f"fibonacci defined for n >= 1, got {n}")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


@dataclass(frozen=True)
class DyckQuery:
    """Walk census: start height, up-steps, down-steps, floor at -p."""

    alpha: int
    m: int
    n: int
    p: int

    def __post_init__(self) -> None:
        if min(self.alpha, self.m, self.n, self.p) < 0:
            raise ValueError(f"all DyckQuery fields must be >= 0, got {self}")


def enumerate_dyck(q: DyckQuery) -> list[tuple[int, ...]]:
    """All +/-1 step sequences matching the query, in lexicographic order.

    A sequence has q.m up-steps and q.n down-steps, starts at height q.alpha
    and never dips below -q.p.  Used as a small-size oracle only; the count
    equals catalan_general(m, n, p) when alpha == 0 and m - n >= -p - 1.
    """
    if q.m + q.n > MAX_DYCK_STEPS:
        raise ValueError(f"query with {q.m + q.n} steps exceeds cap {MAX_DYCK_STEPS}")
    out: list[tuple[int, ...]] = []
    steps: list[int] = []

    def rec(height: int, ups: int, downs: int) -> None:
        if ups == 0 and downs == 0:
            out.append(tuple(steps))
            return
        if downs > 0 and height - 1 >= -q.p:
            steps.append(-1)
            rec(height - 1, ups, downs - 1)
            steps.pop()
        if ups > 0:
            steps.append(1)
            rec(height + 1, ups - 1, downs)
            steps.pop()

    rec(q.alpha, q.m, q.n)
    return out


def catalan_recurrence_holds(m, n, p):
    """Exact check of sum_k C_{k+n,k} C_{m-k,p-k} == C_{m+n+1,p}, k <= (m+p)//2.

    Broadcasts over int arrays of triples, summing over k on a trailing axis;
    int arguments give a bool.  Raises ValueError when the hypotheses n >= 0,
    m >= p, m + n + p + 1 >= 0 are not met, so an unmet hypothesis is never
    conflated with a failure, and OverflowError past m + n + p =
    CATALAN_RECURRENCE_TOP, where the int64 sums could wrap.
    """
    m, n, p = np.broadcast_arrays(*map(np.asarray, (m, n, p)))
    unmet = (n < 0) | (m < p) | (m + n + p + 1 < 0)
    if unmet.any():
        i = unmet.argmax()
        raise ValueError(f"hypotheses n>=0, m>=p, m+n+p+1>=0 unmet for "
                         f"{(m.flat[i].item(), n.flat[i].item(), p.flat[i].item())}")
    if (m + n + p).max(initial=0) > CATALAN_RECURRENCE_TOP:
        raise OverflowError(f"need m + n + p <= {CATALAN_RECURRENCE_TOP} for exact int64 sums")
    rhs = catalan_general(m + n + 1, p, 0)
    top = (m + p) // 2
    k = np.arange(top.max(initial=-1) + 1)
    live = k <= top[..., None]
    k = k * live  # a dead term reads k = 0, which is in range, and is then dropped
    m, n, p = m[..., None], n[..., None], p[..., None]
    lhs = (live * catalan_general(k + n, k, 0) * catalan_general(m - k, p - k, 0)).sum(axis=-1)
    out = np.asarray(lhs == rhs)
    return out if out.ndim else out.item()
