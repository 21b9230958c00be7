"""Exact integer combinatorics: binomials, generalized Catalan numbers, Dyck paths.

Everything here is arbitrary-precision integer arithmetic; no floats, no
overflow.  The binomial follows the zero convention: C(m, n) = 0 unless
0 <= n <= m, which makes every downstream formula total.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

MAX_DYCK_STEPS = 64


class _PascalCache:
    """Rows of Pascal's triangle, grown on demand.

    Rows are append-only and never mutated after publication, so readers may
    race with a single growing writer; the lock only serializes growth.
    """

    def __init__(self, rows: int = 64):
        self._lock = threading.Lock()
        self._rows: list[list[int]] = [[1]]
        self._grow(rows)

    def _grow(self, upto: int) -> None:
        rows = self._rows
        while len(rows) <= upto:
            prev = rows[-1]
            rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])

    def row(self, m: int) -> list[int]:
        if m >= len(self._rows):
            with self._lock:
                self._grow(m)
        return self._rows[m]


_PASCAL = _PascalCache()


def binomial(m: int, n: int) -> int:
    """C(m, n) with the zero convention: 0 unless 0 <= n <= m."""
    if n < 0 or m < 0 or n > m:
        return 0
    return _PASCAL.row(m)[n]


def catalan_general(m: int, n: int, p: int) -> int:
    """Doubly generalized Catalan number C(m+n, m) - C(m+n, m+p+1).

    Total for arbitrary integer arguments via the zero-convention binomial.
    For m, n, p >= 0 with m - n >= -p - 1 this counts walks with m up-steps
    and n down-steps from 0 that never go below -p (reflection principle).
    """
    if m + n < 0:
        return 0
    return binomial(m + n, m) - binomial(m + n, m + p + 1)


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


def catalan_recurrence_holds(m: int, n: int, p: int) -> bool:
    """Exact check of sum_k C_{k+n,k} C_{m-k,p-k} == C_{m+n+1,p}, k <= (m+p)//2.

    Raises ValueError when the hypotheses n >= 0, m >= p, m + n + p + 1 >= 0
    are not met, so an unmet hypothesis is never conflated with a failure.
    """
    if n < 0 or m < p or m + n + p + 1 < 0:
        raise ValueError(f"hypotheses n>=0, m>=p, m+n+p+1>=0 unmet for {(m, n, p)}")
    lhs = sum(
        catalan_general(k + n, k, 0) * catalan_general(m - k, p - k, 0)
        for k in range(0, (m + p) // 2 + 1)
    )
    return lhs == catalan_general(m + n + 1, p, 0)
