"""Exact-arithmetic oracle: the kernel series satisfies the isometry identity.

Rebuilds, degree by degree and in pure Fraction arithmetic, the five terms of

    f(x,y) + conj(g(y,x)) + int_a^x g conj(g) + int_x^y f conj(g) + int_y^b f conj(f)

as polynomials in u = x-a, v = y-x, w = b-y with Laurent coefficients in the
unimodular parameter nu (conjugation is nu -> 1/nu).  Every coefficient of
total degree <= S-1 must vanish exactly.  This is independent of both the
Bessel closed forms and the multi-sum coefficient identity: it only consumes
the closed-form forward/reversed count tables.

The module also keeps the per-xi evaluation of that multi-sum identity, the
slow oracle for the table-driven fast path in :mod:`causalprod.coefficients`,
and the closed-form counts one index at a time in Python ints on ``binomial``,
the reference for the broadcast closed forms that read the int64 Pascal table.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial

from causalprod.coefficients import forward_count_closed
from causalprod.combinatorics import binomial

Mono = tuple[int, int, int]


def _forward_terms(s_top: int) -> list[tuple[int, int, int, int, int, int]]:
    # writes its own degree loop instead of coefficients.degree_terms, so the
    # oracle does not share an enumeration with the series it checks
    out = []
    for s in range(1, s_top + 1):
        for m in range(s):
            for n in range(s - m):
                p = s - 1 - m - n
                for q in range(s + 1):
                    c = forward_count_closed(m, n, p, q)
                    if c:
                        out.append((s, m, n, p, q, c))
    return out


def isometry_series_defects(s_top: int) -> list[tuple[Mono, int, Fraction]]:
    """Nonzero coefficients of total degree <= s_top - 1; empty iff the identity holds."""
    ft = _forward_terms(s_top)
    poly: dict[Mono, dict[int, Fraction]] = defaultdict(lambda: defaultdict(Fraction))

    def add(mono: Mono, t: int, val: Fraction) -> None:
        poly[mono][t] += val

    # causal part evaluated at (x, y)
    for s, m, n, p, q, c in ft:
        add((m, n, p), s - 2 * q, Fraction((-1) ** q * c, factorial(m) * factorial(n) * factorial(p)))

    # conj of the anticausal part at (y, x): sum_m (-1)^m nu^-1 u^m w^m / (m!)^2
    for m in range((s_top - 1) // 2 + 1):
        add((m, 0, m), -1, Fraction((-1) ** m, factorial(m) ** 2))

    # int_a^x g(x,z) conj(g(y,z)) dz, homogeneous of degree 2(m1+m2)+1
    for m1 in range(s_top // 2 + 1):
        for m2 in range(s_top // 2 + 1):
            if 2 * (m1 + m2) + 1 > s_top - 1:
                continue
            base = Fraction((-1) ** (m1 + m2),
                            factorial(m1) ** 2 * factorial(m2) ** 2 * (m1 + m2 + 1))
            for i in range(m1 + 1):
                add((m1 + m2 + 1, i, m1 - i + m2), 0, base * comb(m1, i))

    # int_x^y f(x,z) conj(g(y,z)) dz, degree s + 2*m2
    for s, m, n, p, q, c in ft:
        for m2 in range((s_top - 1 - s) // 2 + 1):
            fc = Fraction((-1) ** q * c, factorial(m) * factorial(n) * factorial(p)) \
                * Fraction((-1) ** m2, factorial(m2) ** 2)
            t = (s - 2 * q) - 1
            for c1 in range(p + 1):
                for e in range(p - c1 + 1):
                    for d in range(m2 + 1):
                        tau = n + c1 + m2 - d
                        val = fc * (comb(p, c1) * (-1) ** c1 * comb(p - c1, e) * comb(m2, d))
                        add((m + d, e + tau + 1, p - c1 - e + m2), t, val / (tau + 1))

    # int_y^b f(x,z) conj(f(y,z)) dz, degree s1 + s2 - 1
    for s1, m1, n1, p1, q1, c1 in ft:
        for s2, m2, n2, p2, q2, c2 in ft:
            if s1 + s2 > s_top:
                continue
            base = Fraction((-1) ** q1 * c1, factorial(m1) * factorial(n1) * factorial(p1)) \
                * Fraction((-1) ** q2 * c2, factorial(m2) * factorial(n2) * factorial(p2))
            t = (s1 - 2 * q1) - (s2 - 2 * q2)
            for i1 in range(n1 + 1):
                bi1 = comb(n1, i1)
                for j1 in range(p1 + 1):
                    bj1 = bi1 * comb(p1, j1) * (-1) ** j1
                    for d2 in range(m2 + 1):
                        bd2 = bj1 * comb(m2, d2)
                        for j2 in range(p2 + 1):
                            tau = i1 + j1 + n2 + j2
                            val = base * (bd2 * comb(p2, j2) * (-1) ** j2)
                            add((m1 + d2, n1 - i1 + m2 - d2, p1 - j1 + p2 - j2 + tau + 1),
                                t, val / (tau + 1))

    bad = []
    for (i, j, k), by_power in poly.items():
        if i + j + k <= s_top - 1:
            for t, val in by_power.items():
                if val != 0:
                    bad.append(((i, j, k), t, val))
    return bad


def forward_count_reference(m: int, n: int, p: int, q: int) -> int:
    """The forward count's closed form at one index, in Python ints on ``binomial``.

    Zero below 2q = m + n + p, C(n, q - m) - C(n, q) at it and C(n, q - 1) -
    C(n, q) above it: the per-index form that the broadcast
    ``coefficients.forward_count_closed`` replaced, kept as its reference.
    """
    if min(m, n, p) < 0:
        raise ValueError(f"m, n, p must be >= 0, got {(m, n, p)}")
    w = m + n + p
    if 2 * q < w:
        return 0
    if 2 * q == w:
        return binomial(n, q - m) - binomial(n, q)
    return binomial(n, q - 1) - binomial(n, q)


def reversed_count_reference(m: int, n: int, p: int, q: int) -> int:
    """The reversed count at one index: 1 iff m == p == q and n == 0."""
    if min(m, n, p) < 0:
        raise ValueError(f"m, n, p must be >= 0, got {(m, n, p)}")
    return 1 if (m == p == q and n == 0) else 0


def corrupted_count(at: tuple[int, int, int, int], count=forward_count_closed):
    """``count`` with one added to the entry ``at``: a negative control.

    The one added is the indicator of ``at``, so the hook broadcasts over int
    arrays when ``count`` does and stays in Python ints when ``count`` does.
    """
    def corrupted(m, n, p, q):
        return count(m, n, p, q) + ((m == at[0]) & (n == at[1]) & (p == at[2]) & (q == at[3]))
    return corrupted


def unitarity_identity_residual_slow(alpha: int, beta: int, gamma: int, xi: int,
                                     count=forward_count_reference) -> int:
    """The unitarity coefficient identity evaluated one xi at a time, straight from the sum.

    Kept as the oracle for the batched, table-driven
    ``coefficients.unitarity_identity_residuals``: it calls ``count`` on exactly
    the indices the multi-sum names, one at a time, with no table, no q-window
    and no reuse across xi, so a window or indexing error in the fast path
    shows up as a difference.  ``count`` defaults to the per-index reference
    closed form, not the broadcast one, which costs far more per scalar call.
    """
    total = count(alpha, beta, gamma, xi)
    if beta == 0 and alpha == gamma == xi - 1:
        total -= 1
    if alpha == xi and alpha == beta + gamma + 1:
        total -= binomial(alpha + gamma - 1, gamma)

    for m in range(alpha + 1):
        for p in range(gamma - alpha + m + 1):
            for n in range(alpha + beta - gamma - m + p):
                total -= (
                    count(m, n, alpha + beta - gamma - m - n + 2 * p - 1, xi - gamma + p - 1)
                    * binomial(alpha, m)
                    * binomial(gamma - alpha + m + n - p, n)
                    * binomial(gamma, p)
                )

    for m1 in range(alpha + 1):
        ca = binomial(alpha, m1)
        for m2 in range(beta + 1):
            cb = ca * binomial(beta, m2)
            sign_base = alpha + gamma - m1 + m2
            for n1 in range(gamma):
                for n2 in range(gamma - n1):
                    cn = cb * binomial(n1 + n2, n1)
                    for p1 in range(gamma - n1 - n2):
                        sign = -1 if (sign_base - n1 - p1) % 2 else 1
                        cp = sign * cn * binomial(gamma - 1 - n1 - n2, p1)
                        for t1 in range(xi + 1):
                            left = count(m1, n1 + beta - m2, p1, t1)
                            if left == 0:
                                continue
                            right = count(
                                m2 + alpha - m1,
                                n2,
                                gamma - 1 - n1 - n2 - p1,
                                alpha + gamma - xi - m1 - n1 - p1 + m2 + t1,
                            )
                            total += cp * left * right
    return total
