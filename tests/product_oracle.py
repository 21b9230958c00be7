"""The blocked per-sweep scan that applied the rotation product before the grouped sweep.

Kept verbatim as the slow oracle for ``causalprod.product.apply_product`` at
sizes above the dense product's cap: it runs one Python-level step per
sweep, O(n^2) work per column, and shares no code with the fast path.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from causalprod.kernel import ComplexParam, Interval


# Largest |c|^-t the blocked scan of product_columns may form; it keeps c^-t
# and c^t finite.  The scan's rounding error grows with it, because each block
# sums terms up to _SCAN_GROWTH times larger than the values they give.  At
# angle 1.5, n = 1000, against the same factors applied in long double, the
# error is 7.3e-16 with plain steps (1), 2.9e-14 at 1e2 and 5.1e-14 at 1e8,
# while apply_product is off by 1.9e-14; their difference, 3.3e-14, leaves the
# differential tests' 1e-13 about 3x of headroom.
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
