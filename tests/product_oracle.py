"""The blocked per-sweep scan that applied the rotation product before the grouped sweep.

Kept as the slow oracle for ``causalprod.product.apply_product`` at sizes
above the dense product's cap, with its arithmetic moved to long double: it
runs one Python-level step per sweep, O(n^2) work per column, and shares no
code with the fast path.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from causalprod.kernel import ComplexParam, Interval


# Largest |c|^-t the blocked scan of product_columns may form; it keeps c^-t
# and c^t finite.  The scan's rounding error grows with it, because each block
# sums terms up to _SCAN_GROWTH times larger than the values they give, and
# with the n row updates every entry receives.  Run in float64 it was off by
# 5.1e-14 at angle 1.5, n = 1000 (7.3e-16 with plain steps) and by 1.7e-14 at
# n = 4096, nu = 1 + 0.5i, as large as or larger than apply_product's own
# error.  So the scan runs in long double, on the float64 factors: against the
# same scan with blocks of growth 1e2 it moves by at most 1.3e-17, and its
# difference from apply_product is then apply_product's error, at most
# 7.1e-15 (angle 1.5, n = 1000) over the differential tests' cases.  Where
# long double is float64 (some platforms), the float64 figures apply.
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
    and never divides by c.  The scan runs in long double on the float64
    factors and rounds its result to complex128.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    cols = [int(col) for col in cols]
    if any(not 0 <= col < n for col in cols):
        raise ValueError(f"columns must lie in [0, {n}), got {cols}")
    # u holds the block with its rows reversed, so every sweep reads forward:
    # sweep r (1..n-1) has accumulator u[r] and steps through u[0], ..., u[r-1].
    u = np.zeros((n, len(cols)), dtype=np.clongdouble)
    u[[n - 1 - col for col in cols], np.arange(len(cols))] = 1.0
    if nu.modulus == 0.0:
        return u[::-1].astype(complex)
    theta = iv.width * nu.modulus / n
    c, s = math.cos(theta), math.sin(theta)
    phase = nu.value / nu.modulus
    up, lo = np.clongdouble(-phase.conjugate() * s), np.clongdouble(phase * s)
    decay = -math.log(abs(c)) if c else math.inf
    block = n if decay == 0.0 else min(n, 1 + int(math.log(_SCAN_GROWTH) / decay))
    c = np.longdouble(c)
    pw = (c ** np.arange(block + 1))[:, None]    # c^0 .. c^L
    ipw = (c ** -np.arange(block))[:, None]      # c^0 .. c^-(L-1)
    up_pw = up * pw[:-1]                         # up c^0 .. up c^(L-1)
    for r in range(1, n):
        a = u[r]
        for start in range(0, r, block):
            stop = min(start + block, r)
            m = stop - start
            x = u[start:stop]  # a view: the block's rows are updated in place
            # a_t = c^t a_0 + up c^(t-1) sum_{s<=t} c^-(s-1) x_s, t = 1..m
            acc = np.cumsum(ipw[:m] * x, axis=0)
            acc *= up_pw[:m]
            acc += pw[1:m + 1] * a
            x *= c
            x[0] += lo * a
            x[1:] += lo * acc[:-1]
            a = acc[-1]
        u[r] = a
    return u[::-1].astype(complex)


# Largest per-step angle the Jacobi form of anticausal_column accepts: past it the Jacobi
# polynomials can outgrow float64 before c^e scales them down (at n = 4096 they overflow
# from angle 1.0; at 0.6 the form is within 2.4e-15 of apply_product).
_JACOBI_MAX_ANGLE = 0.6


def anticausal_column(n: int, iv: Interval, nu: ComplexParam, k: int) -> np.ndarray:
    """Entries W[j, k] of the product for j = k+1..n-1 (0-based), below the diagonal.

    The anticausal entries are Jacobi polynomials: with beta = n-1-j,
    d = min(k, beta), e = |beta - k| and t = sin^2(theta),
    W[j, k] = lo c^e P_d^(0,e)(1 - 2t), where c = cos(theta) and lo is the
    factor's lower entry (DLMF 18.5).  P_d is taken from P_0 = 1 and
    P_1 = 1 - (e+2) t by the three-term recurrence in degree (DLMF 18.9),
    written in t and carried as differences D_m = P_m - P_(m-1), which keeps
    the digits that the plain recurrence loses as t -> 0: with a = 2m + e,
    D_(m+1) = (2m(m+e)(a+2) D_m - 2(a+1)(a+2) a t P_m) / (2(m+1)(m+e+1) a).
    All rows run at once, each stopping at its own degree d.  This shares no
    code with the product's sweeps: O(n) work per entry, no product at all.
    Per-step angles above _JACOBI_MAX_ANGLE raise ValueError.
    """
    if not 0 <= k < n:
        raise ValueError(f"column must lie in [0, {n}), got {k}")
    if nu.modulus == 0.0:
        return np.zeros(n - 1 - k, dtype=complex)
    theta = iv.width * nu.modulus / n
    if theta > _JACOBI_MAX_ANGLE:
        raise ValueError(f"per-step angle {theta} exceeds {_JACOBI_MAX_ANGLE}")
    c, s = math.cos(theta), math.sin(theta)
    t = s * s
    beta = np.arange(n - 2 - k, -1, -1)  # rows j = k+1..n-1
    d = np.minimum(k, beta)
    e = np.abs(beta - k).astype(float)
    p = np.where(d > 0, 1.0 - (e + 2) * t, 1.0)  # P_min(d, 1)
    diff = -(e + 2) * t  # D_1
    for m in range(1, int(d.max(initial=0))):
        live = d > m
        el = e[live]
        a = 2 * m + el
        diff[live] = (2 * m * (m + el) * (a + 2) * diff[live]
                      - 2 * (a + 1) * (a + 2) * a * t * p[live]) / (2 * (m + 1) * (m + el + 1) * a)
        p[live] += diff[live]
    return nu.value / nu.modulus * s * c ** e * p
